// Declarative workload scenarios: adversarial "what if" workloads as
// config files instead of C++.
//
// The paper evaluates one workload shape — PowerInfo-like Zipf popularity
// with a diurnal curve.  A scenario file composes that generator with
// stream adaptors (src/scenario/adaptors.hpp) and system-side schedules
// into a named workload a cable operator actually fears:
//
//   * flash crowds — a premiere pulls a large share of an evening's
//     sessions onto one hot title;
//   * catalog release waves — the popularity head migrates to a fresh
//     block of programs every few hours, churning the cache;
//   * popularity-decay regimes — generator freshness knobs retuned so the
//     head decays in hours instead of days;
//   * per-neighborhood heterogeneity — population concentrated into hot
//     neighborhoods, regional catalog affinity skewing what each
//     neighborhood watches;
//   * failure storms — repeated peer-wipe waves on a schedule.
//
// File format: line-oriented `key = value` under `[section]` headers.
// '#' lines are comments.  An unknown section or key, a malformed or
// out-of-range value, or a duplicate key is a parse error with the line
// number, never a silent default.  Sections and keys live in the option
// table (scenario/options.hpp), shared with the CLI flags.
//
// Everything stays streaming: adaptors are single-pass
// trace::SessionSource wrappers that draw their RNG in input order, so a
// million-user scenario run keeps the pipeline's O(1)-in-sessions memory
// and every report stays bit-identical across thread counts, chunk sizes,
// and streamed-vs-materialized (pinned in tests/scenario_test.cpp).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "scenario/options.hpp"
#include "sim/time.hpp"
#include "trace/generator.hpp"
#include "trace/session_source.hpp"

namespace vodcache::scenario {

// [flash_crowd]: during [start, start + duration), each session is
// redirected with probability `capture` to the catalog's `title_rank`-th
// hottest program available at the window start (rank 1 = highest base
// weight; ties broken by lower id).  Durations are clamped to the target's
// length.
struct FlashCrowdSpec {
  bool enabled = false;
  std::uint32_t title_rank = 1;
  sim::SimTime start;
  sim::SimTime duration = sim::SimTime::hours(4);
  double capture = 0.5;
  std::uint64_t seed = 0xF1A5'C0DE;
};

// [release_waves]: wave k covers [k*period, (k+1)*period); its "release
// block" is the next `wave_size` programs of the catalog (rotating, ids
// wrap).  For `window` after each wave begins, sessions are redirected
// with probability `capture` to a uniformly-random block program already
// introduced by the wave start — the Zipf head keeps moving.
struct ReleaseWavesSpec {
  bool enabled = false;
  sim::SimTime period = sim::SimTime::hours(24);
  sim::SimTime window = sim::SimTime::hours(12);
  std::uint32_t wave_size = 8;
  double capture = 0.35;
  std::uint64_t seed = 0x4E1E'A5E5;
};

// [neighborhood_skew]: with probability `population_share` a session's
// viewer is replaced by a uniformly-random subscriber living in the first
// `hot_neighborhoods` neighborhoods (population mix skew).  With
// `regions` > 0 the catalog is split into `regions` equal slices,
// neighborhood n prefers slice n % regions, and with probability
// `regional_affinity` a session is remapped to a uniformly-random
// back-catalog program of its neighborhood's slice (catalog mix skew).
struct NeighborhoodSkewSpec {
  bool enabled = false;
  std::uint32_t hot_neighborhoods = 1;
  double population_share = 0.0;
  std::uint32_t regions = 0;
  double regional_affinity = 0.0;
  std::uint64_t seed = 0x5'11E'D;
};

// [failure_storm]: `waves` peer-wipe waves, the first at `start`, then
// every `period`; each wipes each peer independently with probability
// `fraction`.  Expands into SystemConfig::peer_failures (wave k gets seed
// `seed + k`, so consecutive waves hit different peer draws).
struct FailureStormSpec {
  bool enabled = false;
  sim::SimTime start;
  std::uint32_t waves = 1;
  sim::SimTime period = sim::SimTime::hours(24);
  double fraction = 0.2;
  std::uint64_t seed = 0xFA11;
};

struct ScenarioSpec {
  std::string name;     // file stem (or caller-provided hint)
  std::string summary;  // [scenario] summary = ...

  // [workload] + [popularity] overrides applied onto the defaults.
  trace::GeneratorConfig workload;

  FlashCrowdSpec flash_crowd;
  ReleaseWavesSpec release_waves;
  NeighborhoodSkewSpec skew;
  FailureStormSpec storm;

  // Cross-field validation against the *final* workload and system (the
  // CLI may override days/users/programs or the topology after loading
  // the file): check_options(), windows and hub outages inside the
  // horizon, ranks inside the catalog.  Throws std::runtime_error —
  // scenario data is untrusted input, not a programming error.
  void validate(const core::SystemConfig& system) const;
};

// Parses a scenario from a stream / file.  Throws std::runtime_error with
// a line number on any malformed input.  Keys go through the option table
// and override the caller's values: `base` seeds the returned workload,
// and [system]/[tiers] keys write into `system` (only on success), so an
// omitted key keeps an earlier --days or --hub-* flag.  A [tiers] section
// configures `system`'s one hub tier, creating it if needed, and a
// [failure_storm] section appends its waves to `system.peer_failures`.
[[nodiscard]] ScenarioSpec parse_scenario(
    std::istream& in, std::string name, core::SystemConfig& system,
    const trace::GeneratorConfig& base = trace::GeneratorConfig{});
[[nodiscard]] ScenarioSpec load_scenario_file(
    const std::string& path, core::SystemConfig& system,
    const trace::GeneratorConfig& base = trace::GeneratorConfig{});

// Expands a failure storm into `config.peer_failures`: wave k at
// start + k * period with seed `seed + k`.
void apply_storm(const FailureStormSpec& storm, core::SystemConfig& config);

// The one builder of a generated workload: validates the spec against
// `system`, then appends the generator for spec.workload and its enabled
// adaptors (skew, then release waves, then flash crowd — so the spike wins
// over background churn) to `parts`, which keeps every link alive;
// `parts.back()` is the composed workload.  `system` must be the
// configuration the simulation will actually run with (the skew adaptor
// replays the topology's placement).
void build_workload(std::vector<std::unique_ptr<trace::SessionSource>>& parts,
                    const ScenarioSpec& spec,
                    const core::SystemConfig& system);

// Convenience owner for tests and benches: build_workload's chain in one
// object.  `source()` is the composed workload.
class ScenarioWorkload {
 public:
  ScenarioWorkload(const ScenarioSpec& spec, const core::SystemConfig& system);

  [[nodiscard]] const trace::SessionSource& source() const {
    return *parts_.back();
  }

 private:
  std::vector<std::unique_ptr<trace::SessionSource>> parts_;
};

}  // namespace vodcache::scenario
