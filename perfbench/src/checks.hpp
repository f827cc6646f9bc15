// Output checks every replay must pass, and the report digest that pins
// the determinism contract across runs, thread counts and commits.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/index_server.hpp"
#include "core/report.hpp"

namespace perfbench {

namespace core = vodcache::core;

// FNV-1a 64 over the serialized report, as 16 hex digits.
[[nodiscard]] std::string digest(const std::string& report_json);

// Conservation: hits + cold_misses + busy_misses == segments, in total and
// per neighborhood, and the per-neighborhood sums equal the totals.
// Returns one line per violation; empty means the report passed.
[[nodiscard]] std::vector<std::string> check_report(
    const core::SimulationReport& report);

// Cache counters summed over a set of shards, in the report's terms.
struct CounterTotals {
  std::uint64_t sessions = 0;
  std::uint64_t segments = 0;
  std::uint64_t hits = 0;
  std::uint64_t cold_misses = 0;
  std::uint64_t busy_misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t fills = 0;
  std::uint64_t admission_denials = 0;
  std::uint64_t peer_failures = 0;
  std::vector<std::uint64_t> tier_hits;

  void add(const core::IndexServer::Counters& c);
  friend bool operator==(const CounterTotals&, const CounterTotals&) = default;
};

// The report's totals, in the same shape (tier hits from its tier rows,
// the origin row excluded).
[[nodiscard]] CounterTotals totals_of(const core::SimulationReport& report);

// Field-by-field differences between two totals; empty when equal.
[[nodiscard]] std::vector<std::string> compare_totals(
    const CounterTotals& traced, const CounterTotals& report);

}  // namespace perfbench
