#include "checks.hpp"

#include <cstdio>

namespace perfbench {
namespace {

void expect_equal(std::vector<std::string>& out, const std::string& what,
                  std::uint64_t got, std::uint64_t want) {
  if (got != want) {
    out.push_back(what + ": " + std::to_string(got) +
                  " != " + std::to_string(want));
  }
}

}  // namespace

std::string digest(const std::string& report_json) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const unsigned char c : report_json) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  char text[17];
  std::snprintf(text, sizeof text, "%016llx",
                static_cast<unsigned long long>(hash));
  return text;
}

std::vector<std::string> check_report(const core::SimulationReport& report) {
  std::vector<std::string> out;
  expect_equal(out, "hits + cold_misses + busy_misses vs segments",
               report.hits + report.cold_misses + report.busy_misses,
               report.segments);
  std::uint64_t sessions = 0;
  std::uint64_t segments = 0;
  std::uint64_t hits = 0;
  std::uint64_t cold = 0;
  std::uint64_t busy = 0;
  std::uint64_t denials = 0;
  for (std::size_t i = 0; i < report.neighborhoods.size(); ++i) {
    const auto& n = report.neighborhoods[i];
    expect_equal(out,
                 "neighborhood " + std::to_string(i) +
                     " hits + cold_misses + busy_misses vs segments",
                 n.hits + n.cold_misses + n.busy_misses, n.segments);
    sessions += n.sessions;
    segments += n.segments;
    hits += n.hits;
    cold += n.cold_misses;
    busy += n.busy_misses;
    denials += n.admission_denials;
  }
  expect_equal(out, "sum of neighborhood sessions", sessions, report.sessions);
  expect_equal(out, "sum of neighborhood segments", segments, report.segments);
  expect_equal(out, "sum of neighborhood hits", hits, report.hits);
  expect_equal(out, "sum of neighborhood cold_misses", cold,
               report.cold_misses);
  expect_equal(out, "sum of neighborhood busy_misses", busy,
               report.busy_misses);
  expect_equal(out, "sum of neighborhood admission_denials", denials,
               report.admission_denials);
  if (report.segments == 0) out.push_back("the replay played no segment");
  return out;
}

void CounterTotals::add(const core::IndexServer::Counters& c) {
  sessions += c.sessions;
  segments += c.segments;
  hits += c.hits;
  cold_misses += c.cold_misses;
  busy_misses += c.busy_misses;
  evictions += c.evictions;
  fills += c.fills;
  admission_denials += c.admission_denials;
  peer_failures += c.peer_failures;
  if (tier_hits.size() < c.tier_hits.size()) {
    tier_hits.resize(c.tier_hits.size(), 0);
  }
  for (std::size_t l = 0; l < c.tier_hits.size(); ++l) {
    tier_hits[l] += c.tier_hits[l];
  }
}

CounterTotals totals_of(const core::SimulationReport& report) {
  CounterTotals t;
  t.sessions = report.sessions;
  t.segments = report.segments;
  t.hits = report.hits;
  t.cold_misses = report.cold_misses;
  t.busy_misses = report.busy_misses;
  t.evictions = report.evictions;
  t.fills = report.fills;
  t.admission_denials = report.admission_denials;
  t.peer_failures = report.peer_failures;
  for (std::size_t l = 0; l + 1 < report.tiers.size(); ++l) {
    t.tier_hits.push_back(report.tiers[l].hits);
  }
  return t;
}

std::vector<std::string> compare_totals(const CounterTotals& traced,
                                        const CounterTotals& report) {
  std::vector<std::string> out;
  expect_equal(out, "traced sessions", traced.sessions, report.sessions);
  expect_equal(out, "traced segments", traced.segments, report.segments);
  expect_equal(out, "traced hits", traced.hits, report.hits);
  expect_equal(out, "traced cold_misses", traced.cold_misses,
               report.cold_misses);
  expect_equal(out, "traced busy_misses", traced.busy_misses,
               report.busy_misses);
  expect_equal(out, "traced evictions", traced.evictions, report.evictions);
  expect_equal(out, "traced fills", traced.fills, report.fills);
  expect_equal(out, "traced admission_denials", traced.admission_denials,
               report.admission_denials);
  expect_equal(out, "traced peer_failures", traced.peer_failures,
               report.peer_failures);
  if (traced.tier_hits != report.tier_hits) {
    out.push_back("traced tier hits differ from the report's tier rows");
  }
  return out;
}

}  // namespace perfbench
