#include "scenario/options.hpp"

#include <cstdint>
#include <sstream>
#include <stdexcept>

#include "core/config.hpp"
#include "core/policy_registry.hpp"
#include "scenario/scenario.hpp"
#include "util/parse.hpp"

namespace vodcache::scenario {

namespace {

constexpr double kMaxCount = kMaxIdCount;

using K = OptionKind;
using T = OptionTarget;
using V = const OptionValue&;

std::int32_t i32(V v) { return static_cast<std::int32_t>(v.integer); }
std::uint32_t u32(V v) { return static_cast<std::uint32_t>(v.integer); }
sim::SimTime hours(V v) { return sim::SimTime::hours(v.integer); }

// The hub tier the [tiers] keys and the --hub-* flags configure, created
// on first use — so flags and a file's [tiers] section share one hub.
hfc::TierLevelSpec& hub(core::SystemConfig& system) {
  if (system.tiers.empty()) system.tiers.emplace_back();
  return system.tiers.front();
}

// The hub's outage window, created by whichever of its two keys comes
// first.  A negative start marks outage_start_hour as not given yet;
// check_options() rejects a window missing either key.
hfc::TierOutage& hub_outage(core::SystemConfig& system) {
  auto& outages = hub(system).outages;
  if (outages.empty()) outages.push_back({sim::SimTime::millis(-1), {}});
  return outages.front();
}

// Section order is the order --list-scenarios prints.
constexpr SectionEntry kSections[] = {
    {"scenario", "name and free-text summary of the workload", nullptr},
    {"workload", "base generator sizing (trace/generator.hpp defaults)",
     nullptr},
    {"popularity",
     "popularity regime: Zipf shape and freshness decay (figure 12 knobs)",
     nullptr},
    {"system", "topology and measurement overrides", nullptr},
    {"flash_crowd",
     "redirect a share of in-window sessions onto one hot title",
     [](T t) { t.scenario.flash_crowd.enabled = true; }},
    {"release_waves",
     "rotate the popularity head through the catalog, one block per period",
     [](T t) { t.scenario.release_waves.enabled = true; }},
    {"neighborhood_skew",
     "concentrate population into hot neighborhoods; regional catalog mixes",
     [](T t) { t.scenario.skew.enabled = true; }},
    {"failure_storm", "scheduled waves of peer disk wipes",
     [](T t) { t.scenario.storm.enabled = true; }},
    {"tiers",
     "regional-hub cache tier between the neighborhoods and the origin",
     [](T t) { (void)hub(t.system); }},
};

// Rows run section by section in --list-scenarios order; a section's
// keys are listed in row order, and --help prints the flag rows in order.
constexpr OptionRow kOptions[] = {
    {"scenario", "summary", nullptr, K::Text, 0, 0,
     "one-line description of the workload",
     [](T t, V v) { t.scenario.summary = std::string(v.text); }},
    {"workload", "days", "--days", K::Int, 1, kMaxDays,
     "workload horizon in days",
     [](T t, V v) { t.scenario.workload.days = i32(v); }},
    {"workload", "users", "--users", K::Int, 1, kMaxCount, "subscriber count",
     [](T t, V v) { t.scenario.workload.user_count = u32(v); }},
    {"workload", "programs", "--programs", K::Int, 1, kMaxCount, "catalog size",
     [](T t, V v) { t.scenario.workload.program_count = u32(v); }},
    {"workload", "sessions_per_day", nullptr, K::Double, 1e-6, 1e3,
     "sessions per subscriber per day",
     [](T t, V v) {
       t.scenario.workload.sessions_per_user_per_day = v.number;
     }},
    {"workload", "seed", "--seed", K::Seed, 0, 0, "workload seed",
     [](T t, V v) { t.scenario.workload.seed = v.seed; }},
    {"popularity", "zipf_exponent", nullptr, K::Double, 0, 10,
     "Zipf popularity exponent",
     [](T t, V v) { t.scenario.workload.zipf_exponent = v.number; }},
    {"popularity", "zipf_offset", nullptr, K::Double, 0, 1e6,
     "Zipf rank offset",
     [](T t, V v) { t.scenario.workload.zipf_offset = v.number; }},
    {"popularity", "freshness_boost", nullptr, K::Double, 0, 1e6,
     "popularity boost of a new release",
     [](T t, V v) { t.scenario.workload.freshness_boost = v.number; }},
    {"popularity", "freshness_tau_days", nullptr, K::Double, 1e-3, 1e4,
     "e-folding time of the release boost, days",
     [](T t, V v) { t.scenario.workload.freshness_tau_days = v.number; }},
    {"popularity", "freshness_floor", nullptr, K::Double, 1e-6, 1e3,
     "long-run popularity multiplier",
     [](T t, V v) { t.scenario.workload.freshness_floor = v.number; }},
    {"popularity", "back_catalog_fraction", nullptr, K::Double, 0, 1,
     "share of the catalog released before day 0",
     [](T t, V v) { t.scenario.workload.back_catalog_fraction = v.number; }},
    {"system", "neighborhood", "--neighborhood", K::Int, 1, kMaxCount,
     "subscribers per neighborhood",
     [](T t, V v) { t.system.neighborhood_size = u32(v); }},
    {"system", "per_peer_gb", "--per-peer-gb", K::Int, 1, kMaxGigabytes,
     "storage contribution per set-top, GB",
     [](T t, V v) {
       t.system.per_peer_storage = DataSize::gigabytes(v.integer);
     }},
    {"system", nullptr, "--strategy", K::Scorer, 0, 0,
     "eviction scorer (see --list-strategies)",
     [](T t, V v) {
       t.system.strategy.kind = core::find_scorer(v.text)->kind;
     }},
    {"system", nullptr, "--admission-policy", K::Admission, 0, 0,
     "admission gate (see --list-strategies)",
     [](T t, V v) {
       t.system.admission_policy.kind = core::find_admission(v.text)->kind;
     }},
    {"system", nullptr, "--probation-hours", K::Int, 0, kMaxHours,
     "second-hit probation window, hours",
     [](T t, V v) { t.system.admission_policy.probation_window = hours(v); }},
    {"system", nullptr, "--headroom", K::Fraction, 0, 0,
     "coax-headroom admission fraction",
     [](T t, V v) { t.system.admission_policy.headroom_fraction = v.number; }},
    {"system", nullptr, "--history-hours", K::Int, 0, kMaxHours,
     "LFU/GlobalLFU history window, hours",
     [](T t, V v) { t.system.strategy.lfu_history = hours(v); }},
    {"system", nullptr, "--lag-minutes", K::Int, 0, kMaxHours * 60,
     "GlobalLFU popularity batching lag, minutes",
     [](T t, V v) {
       t.system.strategy.global_lag = sim::SimTime::minutes(v.integer);
     }},
    {"system", nullptr, "--segment-admission", K::Flag, 0, 1,
     "charge only stored segment bytes (ablation)",
     [](T t, V v) {
       t.system.admission = v.integer != 0 ? core::CacheAdmission::Segment
                                           : core::CacheAdmission::WholeProgram;
     }},
    {"system", nullptr, "--shadow-matrix", K::Flag, 0, 1,
     "shadow every (scorer x admission) pair in the same pass",
     [](T t, V v) { t.system.shadow_matrix = v.integer != 0; }},
    {"system", "warmup_days", "--warmup-days", K::Int, 0, kMaxDays,
     "measurement warmup exclusion, days",
     [](T t, V v) { t.system.warmup = sim::SimTime::days(v.integer); }},
    {"system", "policy_switch", "--policy-switch", K::Flag, 0, 1,
     "let a neighborhood promote a shadow pair that out-hits its primary",
     [](T t, V v) { t.system.policy_switch = v.integer != 0; }},
    {"system", "switch_window_hours", "--switch-window", K::Int, 1, kMaxHours,
     "policy-switch comparison window, hours",
     [](T t, V v) { t.system.switch_window = hours(v); }},
    {"system", "switch_windows_k", "--switch-k", K::Int, 1, 1000,
     "consecutive windows a pair must win to be promoted",
     [](T t, V v) { t.system.switch_windows_k = i32(v); }},
    {"system", nullptr, "--replicate", K::Flag, 0, 1,
     "replicate stream-saturated segments",
     [](T t, V v) { t.system.replicate_on_busy = v.integer != 0; }},
    {"system", nullptr, "--threads", K::Int, 1, 4096,
     "replay worker threads (the report is identical for any count)",
     [](T t, V v) { t.system.threads = u32(v); }},
    {"flash_crowd", "title_rank", nullptr, K::Int, 1, kMaxCount,
     "popularity rank of the hot title (1 = hottest)",
     [](T t, V v) { t.scenario.flash_crowd.title_rank = u32(v); }},
    {"flash_crowd", "start_hour", nullptr, K::Int, 0, kMaxHours,
     "window start, hour",
     [](T t, V v) { t.scenario.flash_crowd.start = hours(v); }},
    {"flash_crowd", "duration_hours", nullptr, K::Int, 1, kMaxHours,
     "window length, hours",
     [](T t, V v) { t.scenario.flash_crowd.duration = hours(v); }},
    {"flash_crowd", "capture", nullptr, K::Double, 0, 1,
     "share of in-window sessions redirected",
     [](T t, V v) { t.scenario.flash_crowd.capture = v.number; }},
    {"flash_crowd", "seed", nullptr, K::Seed, 0, 0, "redirect draw seed",
     [](T t, V v) { t.scenario.flash_crowd.seed = v.seed; }},
    {"release_waves", "period_hours", nullptr, K::Int, 1, kMaxHours,
     "hours between waves",
     [](T t, V v) { t.scenario.release_waves.period = hours(v); }},
    {"release_waves", "window_hours", nullptr, K::Int, 1, kMaxHours,
     "redirect window after each wave starts, hours",
     [](T t, V v) { t.scenario.release_waves.window = hours(v); }},
    {"release_waves", "wave_size", nullptr, K::Int, 1, kMaxCount,
     "programs per release block",
     [](T t, V v) { t.scenario.release_waves.wave_size = u32(v); }},
    {"release_waves", "capture", nullptr, K::Double, 0, 1,
     "share of in-window sessions redirected",
     [](T t, V v) { t.scenario.release_waves.capture = v.number; }},
    {"release_waves", "seed", nullptr, K::Seed, 0, 0, "redirect draw seed",
     [](T t, V v) { t.scenario.release_waves.seed = v.seed; }},
    {"neighborhood_skew", "hot_neighborhoods", nullptr, K::Int, 1, kMaxCount,
     "neighborhoods the population concentrates into",
     [](T t, V v) { t.scenario.skew.hot_neighborhoods = u32(v); }},
    {"neighborhood_skew", "population_share", nullptr, K::Double, 0, 1,
     "share of sessions moved to a hot neighborhood",
     [](T t, V v) { t.scenario.skew.population_share = v.number; }},
    {"neighborhood_skew", "regions", nullptr, K::Int, 0, kMaxCount,
     "catalog slices, one preferred per neighborhood (0 = off)",
     [](T t, V v) { t.scenario.skew.regions = u32(v); }},
    {"neighborhood_skew", "regional_affinity", nullptr, K::Double, 0, 1,
     "share of sessions remapped into the regional slice",
     [](T t, V v) { t.scenario.skew.regional_affinity = v.number; }},
    {"neighborhood_skew", "seed", nullptr, K::Seed, 0, 0, "skew draw seed",
     [](T t, V v) { t.scenario.skew.seed = v.seed; }},
    {"failure_storm", "start_hour", nullptr, K::Int, 0, kMaxHours,
     "first wave, hour",
     [](T t, V v) { t.scenario.storm.start = hours(v); }},
    {"failure_storm", "waves", nullptr, K::Int, 1, 10'000,
     "number of wipe waves",
     [](T t, V v) { t.scenario.storm.waves = u32(v); }},
    {"failure_storm", "period_hours", nullptr, K::Int, 1, kMaxHours,
     "hours between waves",
     [](T t, V v) { t.scenario.storm.period = hours(v); }},
    {"failure_storm", "fraction", nullptr, K::Double, 1e-9, 1,
     "share of peers each wave wipes",
     [](T t, V v) { t.scenario.storm.fraction = v.number; }},
    {"failure_storm", "seed", nullptr, K::Seed, 0, 0, "seed of the first wave",
     [](T t, V v) { t.scenario.storm.seed = v.seed; }},
    {"tiers", "hub_fan_in", "--hub-fan-in", K::Int, 1, kMaxCount,
     "neighborhoods per hub node",
     [](T t, V v) { hub(t.system).fan_in = u32(v); }},
    {"tiers", "hub_capacity_gb", "--hub-capacity-gb", K::Int, 0, kMaxGigabytes,
     "pooled storage per hub node, GB",
     [](T t, V v) { hub(t.system).capacity = DataSize::gigabytes(v.integer); }},
    {"tiers", "hub_link_gbps", "--hub-link-gbps", K::Double, 0, 1e6,
     "hub refresh uplink cap, Gb/s (0 = none)",
     [](T t, V v) {
       hub(t.system).uplink = DataRate::gigabits_per_second(v.number);
     }},
    {"tiers", "hub_cost_per_gb", "--hub-cost-per-gb", K::Double, 0, 1e6,
     "transfer cost per GB served by the hub",
     [](T t, V v) { hub(t.system).cost_per_gb = v.number; }},
    {"tiers", "origin_cost_per_gb", "--origin-cost-per-gb", K::Double, 0, 1e6,
     "transfer cost per GB served by the origin",
     [](T t, V v) { t.system.origin_cost_per_gb = v.number; }},
    {"tiers", "prefetch", "--prefetch", K::Prefetch, 0, 0,
     "hub prior-storing policy (see --list-tiers)",
     [](T t, V v) {
       t.system.prefetch.kind = core::find_prefetch(v.text)->kind;
     }},
    {"tiers", "refresh_hours", "--prefetch-refresh-hours", K::Int, 1, kMaxHours,
     "prefetch plan rotation period, hours",
     [](T t, V v) { t.system.prefetch.refresh = hours(v); }},
    {"tiers", "outage_start_hour", nullptr, K::Int, 0, kMaxHours,
     "hub outage start, hour",
     [](T t, V v) { hub_outage(t.system).start = hours(v); }},
    {"tiers", "outage_hours", nullptr, K::Int, 1, kMaxHours,
     "hub outage length, hours",
     [](T t, V v) { hub_outage(t.system).duration = hours(v); }},
};

// Parses all of `text` as a Number in [lo, hi].
template <typename Number>
Number parse_in(std::string_view name, std::string_view text, Number lo,
                Number hi) {
  const auto value = util::parse_strict<Number>(text);
  std::ostringstream message;
  if (!value) {
    message << "malformed value for '" << name << "': '" << text << "'";
  } else if (*value < lo || *value > hi) {
    message << "'" << name << "' must be in [" << lo << ", " << hi
            << "], got " << text;
  } else {
    return *value;
  }
  throw std::runtime_error(message.str());
}

bool registered(OptionKind kind, std::string_view name) {
  switch (kind) {
    case K::Scorer:
      return core::find_scorer(name) != nullptr;
    case K::Admission:
      return core::find_admission(name) != nullptr;
    default:
      return core::find_prefetch(name) != nullptr;
  }
}

}  // namespace

std::span<const OptionRow> option_table() { return kOptions; }

const OptionRow* find_flag(std::string_view flag) {
  for (const auto& row : kOptions) {
    if (row.flag != nullptr && row.flag == flag) return &row;
  }
  return nullptr;
}

const OptionRow* find_key(std::string_view section, std::string_view key) {
  for (const auto& row : kOptions) {
    if (row.key != nullptr && row.section == section && row.key == key) {
      return &row;
    }
  }
  return nullptr;
}

std::string section_option_keys(std::string_view section) {
  std::string keys;
  for (const auto& row : kOptions) {
    if (row.key == nullptr || row.section != section) continue;
    if (!keys.empty()) keys += ", ";
    keys += row.key;
  }
  return keys;
}

std::string value_range(const OptionRow& row) {
  std::ostringstream range;
  switch (row.kind) {
    case K::Int:
      range << static_cast<std::int64_t>(row.lo) << ".."
            << static_cast<std::int64_t>(row.hi);
      break;
    case K::Double:
      range << row.lo << ".." << row.hi;
      break;
    case K::Fraction:
      range << "(0, 1]";
      break;
    case K::Seed:
      range << "0..2^64-1";
      break;
    case K::Scorer:
      return core::scorer_keys();
    case K::Admission:
      return core::admission_keys();
    case K::Prefetch:
      return core::prefetch_keys();
    case K::Flag:
    case K::Text:
      break;
  }
  return range.str();
}

std::int64_t parse_int(std::string_view name, std::string_view text,
                       std::int64_t lo, std::int64_t hi) {
  return parse_in(name, text, lo, hi);
}

double parse_fraction(std::string_view name, std::string_view text) {
  const auto value = parse_in(name, text, 0.0, 1.0);
  if (value == 0.0) {
    std::ostringstream message;
    message << "'" << name << "' must be in (0, 1], got " << text;
    throw std::runtime_error(message.str());
  }
  return value;
}

void apply_option(const OptionRow& row, std::string_view spelling,
                  std::string_view text, OptionTarget target) {
  OptionValue value;
  switch (row.kind) {
    case K::Int:
    case K::Flag:
      value.integer = parse_int(spelling, text,
                                static_cast<std::int64_t>(row.lo),
                                static_cast<std::int64_t>(row.hi));
      break;
    case K::Double:
      value.number = parse_in(spelling, text, row.lo, row.hi);
      break;
    case K::Fraction:
      value.number = parse_fraction(spelling, text);
      break;
    // Seeds are full-range uint64: parsed as the target type, so 2^63..
    // is accepted and a negative value is malformed, not a wraparound.
    case K::Seed:
      value.seed = parse_in<std::uint64_t>(spelling, text, 0, UINT64_MAX);
      break;
    case K::Scorer:
    case K::Admission:
    case K::Prefetch:
      if (!registered(row.kind, text)) {
        std::ostringstream message;
        message << "'" << spelling << "' must be one of " << value_range(row)
                << ", got '" << text << "'";
        throw std::runtime_error(message.str());
      }
      value.text = text;
      break;
    case K::Text:
      value.text = text;
      break;
  }
  row.set(target, value);
}

bool apply_flag(int argc, char** argv, int& i, OptionTarget target) {
  const auto* row = find_flag(argv[i]);
  if (row == nullptr) return false;
  const bool bare = row->kind == K::Flag;
  if (!bare && i + 1 >= argc) {
    throw std::runtime_error(std::string("missing value for ") + row->flag);
  }
  apply_option(*row, row->flag, bare ? "1" : argv[++i], target);
  return true;
}

void check_options(const core::SystemConfig& system) {
  if (!system.per_peer_storage.multipliable_by(system.neighborhood_size)) {
    throw std::runtime_error(
        "per_peer_gb x neighborhood (--per-peer-gb x --neighborhood) "
        "overflows the byte range");
  }
  for (const auto& tier : system.tiers) {
    // A hub pools fan-in neighborhoods' worth of demand against its
    // capacity.
    if (!tier.capacity.multipliable_by(tier.fan_in)) {
      throw std::runtime_error(
          "hub_capacity_gb x hub_fan_in (--hub-capacity-gb x --hub-fan-in) "
          "overflows the byte range — shrink the " + tier.name +
          " or its fan-in");
    }
    for (const auto& outage : tier.outages) {
      if (outage.start < sim::SimTime{} || outage.duration <= sim::SimTime{}) {
        throw std::runtime_error(
            "tiers outage needs both outage_start_hour and outage_hours");
      }
    }
  }
  if (system.policy_switch &&
      system.strategy.kind == core::StrategyKind::None) {
    throw std::runtime_error(
        "policy switch (--policy-switch, [system] policy_switch) needs a "
        "caching strategy; --strategy none has no cached set to hand over");
  }
}

std::span<const SectionEntry> section_registry() { return kSections; }

const SectionEntry* find_section(std::string_view key) {
  for (const auto& entry : kSections) {
    if (entry.key == key) return &entry;
  }
  return nullptr;
}

std::string section_keys() {
  std::string keys;
  for (const auto& entry : kSections) {
    if (!keys.empty()) keys += '|';
    keys += entry.key;
  }
  return keys;
}

}  // namespace vodcache::scenario
