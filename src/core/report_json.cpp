#include "core/report_json.hpp"

#include <ostream>
#include <sstream>

namespace vodcache::core {

namespace {

void write_peak(std::ostream& out, const char* name,
                const sim::PeakStats& peak) {
  out << '"' << name << "\":{"
      << "\"mean_bps\":" << peak.mean.bps() << ","
      << "\"q05_bps\":" << peak.q05.bps() << ","
      << "\"q95_bps\":" << peak.q95.bps() << ","
      << "\"max_bps\":" << peak.max.bps() << ","
      << "\"samples\":" << peak.sample_count << '}';
}

}  // namespace

void write_json(const SimulationReport& report, std::ostream& out,
                bool include_neighborhoods) {
  // Tiered reports carry extra fields, so downstream consumers need a
  // shape marker — but it must be gated exactly like admission_denials:
  // the default two-level output keeps its pre-tier bytes (pinned in
  // tests/policy_identity_test.cpp), so no schema_version there.
  const bool tiered = !report.tiers.empty();
  out << "{";
  if (tiered) out << "\"schema_version\":2,";
  out << "\"strategy\":\"" << to_string(report.strategy) << "\",";
  if (report.admission_policy != AdmissionKind::Always) {
    out << "\"admission_policy\":\"" << to_string(report.admission_policy)
        << "\",";
  }
  out << "\"user_count\":" << report.user_count << ",";
  out << "\"neighborhood_count\":" << report.neighborhood_count << ",";
  out << "\"measured_from_ms\":" << report.measured_from.millis_count()
      << ",";
  write_peak(out, "server_peak", report.server_peak);
  out << ",";
  write_peak(out, "coax_peak_pooled", report.coax_peak_pooled);
  out << ",";

  out << "\"server_hourly_bps\":[";
  for (std::size_t h = 0; h < report.server_hourly.size(); ++h) {
    out << (h ? "," : "") << report.server_hourly[h].bps();
  }
  out << "],";

  out << "\"sessions\":" << report.sessions << ","
      << "\"segments\":" << report.segments << ","
      << "\"hits\":" << report.hits << ","
      << "\"cold_misses\":" << report.cold_misses << ","
      << "\"busy_misses\":" << report.busy_misses << ",";
  // Only when a gate is active: default-admission reports must keep their
  // pre-policy-engine bytes (pinned in tests/policy_identity_test.cpp).
  if (report.admission_policy != AdmissionKind::Always) {
    out << "\"admission_denials\":" << report.admission_denials << ",";
  }
  out
      << "\"evictions\":" << report.evictions << ","
      << "\"fills\":" << report.fills << ","
      << "\"peer_failures\":" << report.peer_failures << ","
      << "\"wiped_bytes\":" << report.wiped_bytes << ","
      << "\"server_bits\":" << report.server_bits << ","
      << "\"peer_bits\":" << report.peer_bits << ","
      << "\"coax_bits\":" << report.coax_bits << ","
      << "\"hit_ratio\":" << report.hit_ratio() << ","
      << "\"byte_hit_ratio\":" << report.byte_hit_ratio();

  if (tiered) {
    out << ",\"prefetch\":\"" << to_string(report.prefetch) << "\""
        << ",\"cache_hit_ratio\":" << report.cache_hit_ratio()
        << ",\"total_transfer_cost\":" << report.total_transfer_cost
        << ",\"tiers\":[";
    for (std::size_t i = 0; i < report.tiers.size(); ++i) {
      const auto& tier = report.tiers[i];
      out << (i ? "," : "") << "{\"name\":\"" << tier.name << "\","
          << "\"nodes\":" << tier.node_count << ","
          << "\"requests\":" << tier.requests << ","
          << "\"hits\":" << tier.hits << ","
          << "\"bits\":" << tier.bits << ","
          << "\"cost\":" << tier.cost << '}';
    }
    out << ']';
  }

  // Same gate discipline as `tiers`: only shadow-matrix runs carry the
  // section, so every other report keeps its exact bytes.
  if (!report.shadow_matrix.empty()) {
    out << ",\"shadow_matrix\":[";
    for (std::size_t i = 0; i < report.shadow_matrix.size(); ++i) {
      const auto& cell = report.shadow_matrix[i];
      const auto& c = cell.counters;
      out << (i ? "," : "") << "{\"scorer\":\"" << cell.scorer << "\","
          << "\"admission\":\"" << cell.admission << "\","
          << "\"sessions\":" << c.sessions << ","
          << "\"segments\":" << c.segments << ","
          << "\"hits\":" << c.hits << ","
          << "\"cold_misses\":" << c.cold_misses << ","
          << "\"busy_misses\":" << c.busy_misses << ","
          << "\"evictions\":" << c.evictions << ","
          << "\"fills\":" << c.fills << ","
          << "\"admission_denials\":" << c.admission_denials << ","
          << "\"hit_bits\":" << c.hit_bits << ","
          << "\"miss_bits\":" << c.miss_bits << ","
          << "\"hit_ratio\":" << cell.hit_ratio() << '}';
    }
    out << ']';
  }

  // Gated on the flag, not emptiness: a switching run with zero switches
  // still declares the (empty) log, while switch-off reports keep their
  // exact pre-existing bytes.
  if (report.policy_switching) {
    out << ",\"policy_switches\":[";
    for (std::size_t i = 0; i < report.policy_switches.size(); ++i) {
      const auto& rec = report.policy_switches[i];
      const auto& e = rec.event;
      out << (i ? "," : "") << "{\"neighborhood\":" << rec.neighborhood << ","
          << "\"time_ms\":" << e.time.millis_count() << ","
          << "\"from_scorer\":\"" << e.from_scorer << "\","
          << "\"from_admission\":\"" << e.from_admission << "\","
          << "\"to_scorer\":\"" << e.to_scorer << "\","
          << "\"to_admission\":\"" << e.to_admission << "\","
          << "\"window_primary_hits\":" << e.window_primary_hits << ","
          << "\"window_winner_hits\":" << e.window_winner_hits << ","
          << "\"primary_hits\":" << e.primary_hits << ","
          << "\"primary_cold_misses\":" << e.primary_cold_misses << ","
          << "\"primary_busy_misses\":" << e.primary_busy_misses << ","
          << "\"winner_hits\":" << e.winner_hits << ","
          << "\"winner_cold_misses\":" << e.winner_cold_misses << ","
          << "\"winner_busy_misses\":" << e.winner_busy_misses << '}';
    }
    out << ']';
  }

  if (include_neighborhoods) {
    out << ",\"neighborhoods\":[";
    for (std::size_t i = 0; i < report.neighborhoods.size(); ++i) {
      const auto& n = report.neighborhoods[i];
      out << (i ? "," : "") << "{\"peers\":" << n.peer_count << ",";
      write_peak(out, "coax_peak", n.coax_peak);
      out << ",";
      write_peak(out, "peer_peak", n.peer_peak);
      out << ",";
      write_peak(out, "fiber_peak", n.fiber_peak);
      out << ",\"sessions\":" << n.sessions << ",\"hits\":" << n.hits
          << ",\"cold_misses\":" << n.cold_misses
          << ",\"busy_misses\":" << n.busy_misses;
      if (report.admission_policy != AdmissionKind::Always) {
        out << ",\"admission_denials\":" << n.admission_denials;
      }
      // Per-neighborhood conservation term for switching runs (see
      // NeighborhoodReport::segments); gated so other reports keep their
      // pre-existing bytes.
      if (report.policy_switching) {
        out << ",\"segments\":" << n.segments;
      }
      out << ",\"cache_used_bytes\":" << n.cache_used.byte_count()
          << ",\"cache_capacity_bytes\":" << n.cache_capacity.byte_count()
          << '}';
    }
    out << ']';
  }
  out << '}';
}

std::string to_json(const SimulationReport& report,
                    bool include_neighborhoods) {
  std::ostringstream out;
  write_json(report, out, include_neighborhoods);
  return out.str();
}

}  // namespace vodcache::core
