#include "core/report.hpp"

#include <sstream>

namespace vodcache::core {

double SimulationReport::hit_ratio() const {
  const std::uint64_t total = hits + cold_misses + busy_misses;
  return total == 0 ? 0.0
                    : static_cast<double>(hits) / static_cast<double>(total);
}

double SimulationReport::byte_hit_ratio() const {
  const double total = peer_bits + server_bits;
  return total <= 0.0 ? 0.0 : peer_bits / total;
}

double SimulationReport::cache_hit_ratio() const {
  const std::uint64_t total = hits + cold_misses + busy_misses;
  if (total == 0) return 0.0;
  std::uint64_t cached = hits;
  // The origin — always the last row — is not a cache.
  for (std::size_t i = 0; i + 1 < tiers.size(); ++i) {
    cached += tiers[i].hits;
  }
  return static_cast<double>(cached) / static_cast<double>(total);
}

double SimulationReport::reduction_vs(DataRate no_cache_peak_mean) const {
  if (no_cache_peak_mean.bps() <= 0.0) return 0.0;
  return 1.0 - server_peak.mean.bps() / no_cache_peak_mean.bps();
}

std::string SimulationReport::to_string() const {
  std::ostringstream out;
  out << "strategy=" << core::to_string(strategy);
  if (admission_policy != AdmissionKind::Always) {
    out << " admission=" << core::to_string(admission_policy);
  }
  out << " users=" << user_count
      << " neighborhoods=" << neighborhood_count << '\n';
  out << "peak server rate: mean=" << server_peak.mean.gbps()
      << " Gb/s  q05=" << server_peak.q05.gbps()
      << "  q95=" << server_peak.q95.gbps()
      << "  max=" << server_peak.max.gbps() << '\n';
  out << "peak coax rate (pooled): mean=" << coax_peak_pooled.mean.mbps()
      << " Mb/s  q95=" << coax_peak_pooled.q95.mbps() << " Mb/s\n";
  out << "sessions=" << sessions << " segments=" << segments
      << " hits=" << hits << " cold=" << cold_misses
      << " busy=" << busy_misses << " hit_ratio=" << hit_ratio();
  if (admission_policy != AdmissionKind::Always) {
    out << " denials=" << admission_denials;
  }
  out << '\n';
  if (!tiers.empty()) {
    out << "tiers (prefetch=" << core::to_string(prefetch) << "):";
    for (const auto& tier : tiers) {
      out << "  " << tier.name << " hits=" << tier.hits << "/"
          << tier.requests << " cost=" << tier.cost;
    }
    out << "  total_cost=" << total_transfer_cost
        << " cache_hit_ratio=" << cache_hit_ratio() << '\n';
  }
  if (!shadow_matrix.empty()) {
    out << "shadow matrix (" << shadow_matrix.size() << " pairs):\n";
    for (const auto& cell : shadow_matrix) {
      const auto& c = cell.counters;
      out << "  " << cell.scorer << " x " << cell.admission
          << ": hits=" << c.hits << " cold=" << c.cold_misses
          << " busy=" << c.busy_misses << " denials=" << c.admission_denials
          << " hit_ratio=" << cell.hit_ratio() << '\n';
    }
  }
  if (policy_switching) {
    out << "policy switches (" << policy_switches.size() << "):\n";
    for (const auto& rec : policy_switches) {
      const auto& e = rec.event;
      out << "  n" << rec.neighborhood << " @"
          << e.time.millis_count() / 3600000.0 << "h " << e.from_scorer
          << " x " << e.from_admission << " -> " << e.to_scorer << " x "
          << e.to_admission << " (window hits " << e.window_primary_hits
          << " -> " << e.window_winner_hits << ")\n";
    }
  }
  return out.str();
}

}  // namespace vodcache::core
