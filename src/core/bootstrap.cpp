#include "core/bootstrap.hpp"

#include <algorithm>

namespace onion::core {

LeadList hardcoded_subset(const LeadList& infector_peers, double p,
                          Rng& rng) {
  LeadList out;
  for (const auto& address : infector_peers)
    if (rng.bernoulli(p)) out.push_back(address);
  if (out.empty() && !infector_peers.empty())
    out.push_back(rng.pick(infector_peers));
  return out;
}

void HotlistDirectory::announce(const tor::OnionAddress& address,
                                const std::vector<std::size_t>& subset) {
  for (const std::size_t s : subset) {
    ONION_EXPECTS(s < windows_.size());
    if (seized_.count(s) > 0) {
      // The defender's honeypot keeps listening: announcements to a
      // seized server are harvested.
      harvested_.push_back(address);
      continue;
    }
    auto& window = windows_[s];
    window.push_back(address);
    if (window.size() > config_.window)
      window.erase(window.begin(),
                   window.begin() +
                       static_cast<std::ptrdiff_t>(window.size() -
                                                   config_.window));
  }
}

std::vector<std::size_t> HotlistDirectory::assign_subset() {
  return rng_.sample_indices(config_.servers, config_.servers_per_bot);
}

LeadList HotlistDirectory::query(
    const std::vector<std::size_t>& subset) const {
  LeadList out;
  for (const std::size_t s : subset) {
    ONION_EXPECTS(s < windows_.size());
    if (seized_.count(s) > 0) continue;  // seized servers answer nothing
    out.insert(out.end(), windows_[s].begin(), windows_[s].end());
  }
  // De-duplicate while preserving order.
  LeadList dedup;
  for (const auto& a : out)
    if (std::find(dedup.begin(), dedup.end(), a) == dedup.end())
      dedup.push_back(a);
  return dedup;
}

LeadList HotlistDirectory::seize(std::size_t server) {
  ONION_EXPECTS(server < windows_.size());
  seized_.insert(server);
  LeadList haul = windows_[server];
  harvested_.insert(harvested_.end(), haul.begin(), haul.end());
  windows_[server].clear();
  return haul;
}

void OutOfBandStore::announce(Key key, const tor::OnionAddress& address) {
  LeadList& list = store_[key];
  if (std::find(list.begin(), list.end(), address) == list.end())
    list.push_back(address);
}

LeadList OutOfBandStore::lookup(Key key) const {
  const auto it = store_.find(key);
  return it == store_.end() ? LeadList{} : it->second;
}

double exposure_fraction(
    const LeadList& haul,
    const std::vector<tor::OnionAddress>& population) {
  if (population.empty()) return 0.0;
  std::size_t known = 0;
  for (const auto& member : population)
    if (std::find(haul.begin(), haul.end(), member) != haul.end()) ++known;
  return static_cast<double>(known) /
         static_cast<double>(population.size());
}

}  // namespace onion::core
