#include "detection/roc.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "common/parallel.hpp"
#include "detection/dga_detector.hpp"
#include "detection/fastflux_detector.hpp"
#include "detection/p2p_detector.hpp"

namespace onion::detection {

namespace {

/// Canonical number rendering for the params tuple: %g is deterministic
/// for the short decimal grid values this module sweeps.
std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

std::string fmt(std::size_t v) { return std::to_string(v); }

std::vector<HostId> sorted_unique(std::vector<HostId> hosts) {
  std::sort(hosts.begin(), hosts.end());
  hosts.erase(std::unique(hosts.begin(), hosts.end()), hosts.end());
  return hosts;
}

/// `hosts` itself when ascending, otherwise a sorted copy in `copy`.
const std::vector<HostId>& ascending(const std::vector<HostId>& hosts,
                                     std::vector<HostId>& copy) {
  if (std::is_sorted(hosts.begin(), hosts.end())) return hosts;
  copy = hosts;
  std::sort(copy.begin(), copy.end());
  return copy;
}

/// Merge step: moves `it` to the first entry not below `h` and reports
/// whether it equals `h`. Probes must come in ascending order.
bool advance_to(std::vector<HostId>::const_iterator& it,
                std::vector<HostId>::const_iterator end, HostId h) {
  while (it != end && *it < h) ++it;
  return it != end && *it == h;
}

double rate(std::size_t hits, std::size_t total) {
  return total == 0 ? 0.0
                    : static_cast<double>(hits) / static_cast<double>(total);
}

}  // namespace

TruthIndex::TruthIndex(std::vector<HostId> infected_hosts,
                       std::vector<HostId> monitored_hosts)
    : infected(sorted_unique(std::move(infected_hosts))),
      monitored(sorted_unique(std::move(monitored_hosts))) {
  auto it = infected.cbegin();
  for (const HostId h : monitored)
    if (!advance_to(it, infected.cend(), h)) ++benign;
}

RocPoint score_verdict(std::string detector, std::string params,
                       const std::vector<HostId>& flagged,
                       const TruthIndex& truth, const GroundTruth& families) {
  RocPoint p;
  p.detector = std::move(detector);
  p.params = std::move(params);
  p.flagged = flagged.size();
  // Every tally is a merge over ascending inputs. Duplicate flagged
  // entries stay in, so each counts toward TP/FP as reported.
  std::vector<HostId> copy;
  const std::vector<HostId>& hosts = ascending(flagged, copy);
  auto infected = truth.infected.begin();
  auto monitored = truth.monitored.begin();
  for (const HostId h : hosts) {
    if (advance_to(infected, truth.infected.end(), h))
      ++p.true_positives;
    else if (advance_to(monitored, truth.monitored.end(), h))
      ++p.false_positives;
  }
  p.tpr = rate(p.true_positives, truth.infected.size());
  p.fpr = rate(p.false_positives, truth.benign);
  p.precision = rate(p.true_positives, p.flagged);
  p.families.reserve(families.populations.size());
  std::vector<HostId> pop_copy;
  for (const GroundTruth::Population& pop : families.populations) {
    RocFamilyCount f;
    f.family = pop.name;
    f.population = pop.hosts.size();
    const std::vector<HostId>& members = ascending(pop.hosts, pop_copy);
    auto it = members.empty() ? hosts.end()
                              : std::lower_bound(hosts.begin(), hosts.end(),
                                                 members.front());
    for (const HostId h : members)
      if (advance_to(it, hosts.end(), h)) ++f.flagged;
    p.families.push_back(std::move(f));
  }
  return p;
}

std::string flow_beacon_params(double size_cv, double gap_cv) {
  return "size_cv=" + fmt(size_cv) + ",gap_cv=" + fmt(gap_cv);
}

std::string tor_flagger_params(std::size_t min_flows) {
  return "min_flows=" + fmt(min_flows);
}

void RocReport::write_csv(std::FILE* out) const {
  std::fprintf(out,
               "detector,params,flagged,true_positives,false_positives,"
               "tpr,fpr,precision");
  // Family-resolved sweeps widen the schema; every point carries the
  // same population list (run() scores one GroundTruth), so the header
  // comes from the first point. Aggregate sweeps print the legacy CSV
  // byte-for-byte.
  if (!points.empty())
    for (const RocFamilyCount& f : points.front().families)
      std::fprintf(out, ",%s_flagged,%s_population", f.family.c_str(),
                   f.family.c_str());
  std::fprintf(out, "\n");
  for (const RocPoint& p : points) {
    std::fprintf(out, "%s,\"%s\",%zu,%zu,%zu,%.6f,%.6f,%.6f",
                 p.detector.c_str(), p.params.c_str(), p.flagged,
                 p.true_positives, p.false_positives, p.tpr, p.fpr,
                 p.precision);
    for (const RocFamilyCount& f : p.families)
      std::fprintf(out, ",%zu,%zu", f.flagged, f.population);
    std::fprintf(out, "\n");
  }
}

RocSweep::RocSweep(RocConfig config) : config_(std::move(config)) {
  // Enumeration order fixes the report's row order and therefore the
  // fingerprint: family by family, axes row-major as declared.
  for (const double entropy : config_.dga_entropy)
    for (const double ratio : config_.dga_nxdomain) {
      DgaDetectorConfig c;
      c.entropy_threshold = entropy;
      c.nxdomain_ratio_threshold = ratio;
      cells_.push_back({"dga-dns",
                        "entropy=" + fmt(entropy) + ",nxdomain=" + fmt(ratio),
                        [c](const TrafficTrace& t, const FlowScorer&) {
                          return detect_dga(t, c).flagged;
                        }});
    }
  for (const std::size_t ips : config_.flux_distinct_ips)
    for (const double ttl : config_.flux_ttl) {
      FluxDetectorConfig c;
      c.distinct_ips_threshold = ips;
      c.ttl_threshold = ttl;
      cells_.push_back({"fast-flux",
                        "distinct_ips=" + fmt(ips) + ",ttl=" + fmt(ttl),
                        [c](const TrafficTrace& t, const FlowScorer&) {
                          return detect_fastflux(t, c).flagged;
                        }});
    }
  for (const double size_cv : config_.flow_size_cv)
    for (const double gap_cv : config_.flow_gap_cv) {
      FlowDetectorConfig c;
      c.size_cv_threshold = size_cv;
      c.gap_cv_threshold = gap_cv;
      const std::size_t k = flow_scorer_.beacon_thresholds.size();
      flow_scorer_.beacon_thresholds.push_back(c);
      cells_.push_back({"flow-beacon", flow_beacon_params(size_cv, gap_cv),
                        [k](const TrafficTrace&, const FlowScorer& s) {
                          return s.beacon_flagged()[k];
                        }});
    }
  for (const std::size_t degree : config_.p2p_degree)
    for (const double inter : config_.p2p_interconnection) {
      P2pDetectorConfig c;
      c.min_peer_degree = degree;
      c.min_peer_interconnection = inter;
      cells_.push_back({"p2p-mesh",
                        "degree=" + fmt(degree) + ",interconnection=" +
                            fmt(inter),
                        [c](const TrafficTrace& t, const FlowScorer&) {
                          return detect_p2p(t, c).flagged;
                        }});
    }
  for (const std::size_t min_flows : config_.tor_min_flows) {
    const std::size_t k = flow_scorer_.tor_min_flows.size();
    flow_scorer_.tor_min_flows.push_back(min_flows);
    cells_.push_back({"tor-flagger", tor_flagger_params(min_flows),
                      [k](const TrafficTrace&, const FlowScorer& s) {
                        return s.tor_flagged()[k];
                      }});
  }
}

RocReport RocSweep::run(const TrafficTrace& trace) const {
  return run(trace, GroundTruth{});
}

RocReport RocSweep::run(const TrafficTrace& trace,
                        const GroundTruth& truth) const {
  RocReport report;
  report.points.resize(cells_.size());
  const auto start = std::chrono::steady_clock::now();
  const TruthIndex index(trace.infected, trace.hosts);
  const FlowScorer flows = score_trace(trace, flow_scorer_);

  // Detectors are pure functions of the (shared, read-only) trace and
  // scorer, and each point lands at its grid index — the sharding is
  // invisible.
  report.threads_used = parallel_for_index(
      cells_.size(), config_.threads, [&](std::size_t i) {
        const Cell& cell = cells_[i];
        report.points[i] = score_verdict(cell.detector, cell.params,
                                         cell.detect(trace, flows), index,
                                         truth);
      });

  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  report.fingerprint = codec::fingerprint(report.points);
  return report;
}

}  // namespace onion::detection
