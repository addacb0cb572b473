#include "scenario/snapshot.hpp"

namespace onion::scenario {

void HashSink::on_snapshot(const MetricsSnapshot& s) {
  hasher_.update(codec::encode(s));
  ++count_;
}

crypto::Sha256Digest HashSink::digest() const {
  crypto::Sha256 copy = hasher_;  // finalize() is destructive
  return copy.finalize();
}

std::string HashSink::hex_digest() const {
  const crypto::Sha256Digest d = digest();
  return to_hex(BytesView(d.data(), d.size()));
}

void CsvSink::on_snapshot(const MetricsSnapshot& s) {
  if (header_) {
    std::fprintf(out_,
                 "time_s,honest_alive,sybil_alive,honest_edges,components,"
                 "largest_fraction,avg_degree,diameter,joins,leaves,"
                 "takedowns,repair_messages,soap_clones,soap_contained\n");
    header_ = false;
  }
  if (s.diameter == kNoDiameter) {
    std::fprintf(out_, "%llu,%llu,%llu,%llu,%llu,%.4f,%.3f,,",
                 static_cast<unsigned long long>(to_seconds(s.time)),
                 static_cast<unsigned long long>(s.honest_alive),
                 static_cast<unsigned long long>(s.sybil_alive),
                 static_cast<unsigned long long>(s.honest_edges),
                 static_cast<unsigned long long>(s.components),
                 s.largest_fraction, s.average_degree);
  } else {
    std::fprintf(out_, "%llu,%llu,%llu,%llu,%llu,%.4f,%.3f,%llu,",
                 static_cast<unsigned long long>(to_seconds(s.time)),
                 static_cast<unsigned long long>(s.honest_alive),
                 static_cast<unsigned long long>(s.sybil_alive),
                 static_cast<unsigned long long>(s.honest_edges),
                 static_cast<unsigned long long>(s.components),
                 s.largest_fraction, s.average_degree,
                 static_cast<unsigned long long>(s.diameter));
  }
  std::fprintf(out_, "%llu,%llu,%llu,%llu,%llu,%llu\n",
               static_cast<unsigned long long>(s.joins),
               static_cast<unsigned long long>(s.leaves),
               static_cast<unsigned long long>(s.takedowns),
               static_cast<unsigned long long>(s.repair_messages),
               static_cast<unsigned long long>(s.soap_clones),
               static_cast<unsigned long long>(s.soap_contained));
}

}  // namespace onion::scenario
