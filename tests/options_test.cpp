// The option table: every row with both a CLI flag and a scenario-file key
// behaves the same through both surfaces, the section listing is the
// table, and the cross-surface fixes stay fixed.
#include <gtest/gtest.h>

#include <iomanip>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/policy_registry.hpp"
#include "scenario/options.hpp"
#include "scenario/scenario.hpp"

namespace vodcache::scenario {
namespace {

// Every field a row with both spellings can write, as one comparable
// string (SystemConfig has no operator==).
std::string fingerprint(const ScenarioSpec& spec,
                        const core::SystemConfig& system) {
  std::ostringstream out;
  out << std::setprecision(17);
  const auto& w = spec.workload;
  out << w.days << ' ' << w.user_count << ' ' << w.program_count << ' '
      << w.seed << " | " << system.neighborhood_size << ' '
      << system.per_peer_storage.bit_count() << ' '
      << system.warmup.millis_count() << ' ' << system.policy_switch << ' '
      << system.switch_window.millis_count() << ' '
      << system.switch_windows_k << " |";
  for (const auto& tier : system.tiers) {
    out << ' ' << tier.name << ' ' << tier.fan_in << ' '
        << tier.capacity.bit_count() << ' ' << tier.uplink.bps() << ' '
        << tier.cost_per_gb << ' ' << tier.outages.size();
  }
  out << " | " << static_cast<int>(system.prefetch.kind) << ' '
      << system.prefetch.refresh.millis_count() << ' '
      << system.origin_cost_per_gb;
  return out.str();
}

struct Surface {
  ScenarioSpec spec;
  core::SystemConfig system;
  [[nodiscard]] std::string print() const { return fingerprint(spec, system); }
};

// The scenario-file surface: `[section]\nkey = value`.  nullopt when the
// parser rejects the value.
std::optional<Surface> via_file(const OptionRow& row,
                                const std::string& value) {
  std::istringstream in(std::string("[") + row.section + "]\n" + row.key +
                        " = " + value + "\n");
  Surface out;
  try {
    out.spec = parse_scenario(in, "parity", out.system);
  } catch (const std::runtime_error&) {
    return std::nullopt;
  }
  return out;
}

// The CLI surface, from the state a file holding only the row's section
// header leaves (a [tiers] header alone creates the hub), so both surfaces
// start equal.  A bare flag takes no value.
std::optional<Surface> via_flag(const OptionRow& row,
                                const std::string& value) {
  std::istringstream header(std::string("[") + row.section + "]\n");
  Surface out;
  out.spec = parse_scenario(header, "parity", out.system);
  std::vector<std::string> args = {"vodcache", "run", row.flag};
  if (row.kind != OptionKind::Flag) args.push_back(value);
  std::vector<char*> argv;
  for (auto& arg : args) argv.push_back(arg.data());
  int i = 2;
  try {
    EXPECT_TRUE(apply_flag(static_cast<int>(argv.size()), argv.data(), i,
                           {out.spec, out.system}));
  } catch (const std::runtime_error&) {
    return std::nullopt;
  }
  EXPECT_EQ(i, static_cast<int>(argv.size()) - 1) << row.flag;
  return out;
}

std::string text(double value) {
  std::ostringstream out;
  out << std::setprecision(17) << value;
  return out.str();
}

struct Probe {
  std::vector<std::string> rejected;
  std::vector<std::string> accepted;
};

// Values every surface must reject, and in-range values every surface
// must accept with the same effect.
Probe probe(const OptionRow& row) {
  Probe p;
  const auto lo = static_cast<std::int64_t>(row.lo);
  const auto hi = static_cast<std::int64_t>(row.hi);
  switch (row.kind) {
    case OptionKind::Int:
      p.rejected = {"7x", std::to_string(lo - 1), std::to_string(hi + 1)};
      p.accepted = {std::to_string(lo), std::to_string(hi)};
      break;
    case OptionKind::Double:
      p.rejected = {"0.5.", text(row.lo - 1), text(row.hi + 1)};
      p.accepted = {text(row.lo), text(row.hi)};
      break;
    case OptionKind::Fraction:
      p.rejected = {"half", "0", "1.5"};
      p.accepted = {"0.25", "1"};
      break;
    case OptionKind::Seed:
      p.rejected = {"seven", "-1", "18446744073709551616"};
      p.accepted = {"0", "18446744073709551615"};
      break;
    case OptionKind::Scorer:
      p.rejected = {"no-such-policy"};
      for (const auto& e : core::scorer_registry()) p.accepted.push_back(e.key);
      break;
    case OptionKind::Admission:
      p.rejected = {"no-such-policy"};
      for (const auto& e : core::admission_registry()) {
        p.accepted.push_back(e.key);
      }
      break;
    case OptionKind::Prefetch:
      p.rejected = {"no-such-policy"};
      for (const auto& e : core::prefetch_registry()) {
        p.accepted.push_back(e.key);
      }
      break;
    case OptionKind::Flag:
      p.rejected = {"2", "-1", "yes"};  // file only: a bare flag has no value
      p.accepted = {"1"};
      break;
    case OptionKind::Text:
      p.accepted = {"free text"};
      break;
  }
  return p;
}

TEST(OptionTable, EverySharedRowAgreesAcrossSurfaces) {
  int shared = 0;
  for (const auto& row : option_table()) {
    if (row.flag == nullptr || row.key == nullptr) continue;
    ++shared;
    SCOPED_TRACE(std::string(row.flag) + " / [" + row.section + "] " +
                 row.key);
    const auto p = probe(row);
    for (const auto& value : p.rejected) {
      EXPECT_FALSE(via_file(row, value)) << "file accepted '" << value << "'";
      if (row.kind != OptionKind::Flag) {
        EXPECT_FALSE(via_flag(row, value)) << "flag accepted '" << value << "'";
      }
    }
    // Each in-range value lands in the same field on both surfaces, and at
    // least one of them moves a field off its default — so a row whose
    // field the fingerprint misses fails here.
    std::istringstream empty;
    Surface defaults;
    defaults.spec = parse_scenario(empty, "parity", defaults.system);
    bool moved = false;
    for (const auto& value : p.accepted) {
      const auto file = via_file(row, value);
      const auto flag = via_flag(row, value);
      ASSERT_TRUE(file) << "file rejected '" << value << "'";
      ASSERT_TRUE(flag) << "flag rejected '" << value << "'";
      EXPECT_EQ(file->print(), flag->print()) << "value '" << value << "'";
      moved = moved || file->print() != defaults.print();
    }
    EXPECT_TRUE(moved) << "no in-range value changed a fingerprinted field";
  }
  EXPECT_EQ(shared, 17);
}

TEST(OptionTable, SpellingsAreUniqueAndSectionsRegistered) {
  for (const auto& row : option_table()) {
    ASSERT_NE(find_section(row.section), nullptr) << row.section;
    EXPECT_TRUE(row.flag != nullptr || row.key != nullptr);
    if (row.flag != nullptr) {
      EXPECT_EQ(find_flag(row.flag), &row);
    }
    if (row.key != nullptr) {
      EXPECT_EQ(find_key(row.section, row.key), &row);
    }
  }
  EXPECT_EQ(find_flag("--trace"), nullptr);  // non-config flags stay out
}

// --list-scenarios prints section_option_keys() per section: it must be
// exactly the table's scenario-file keys, and the vocabulary is pinned.
TEST(OptionTable, ListScenariosKeysColumnIsTheTable) {
  for (const auto& entry : section_registry()) {
    std::string keys;
    for (const auto& row : option_table()) {
      if (row.key == nullptr || std::string_view(row.section) != entry.key) {
        continue;
      }
      keys += keys.empty() ? "" : ", ";
      keys += row.key;
    }
    EXPECT_EQ(section_option_keys(entry.key), keys) << entry.key;
  }
  EXPECT_EQ(section_option_keys("workload"),
            "days, users, programs, sessions_per_day, seed");
  EXPECT_EQ(section_option_keys("system"),
            "neighborhood, per_peer_gb, warmup_days, policy_switch, "
            "switch_window_hours, switch_windows_k");
  EXPECT_EQ(section_option_keys("tiers"),
            "hub_fan_in, hub_capacity_gb, hub_link_gbps, hub_cost_per_gb, "
            "origin_cost_per_gb, prefetch, refresh_hours, outage_start_hour, "
            "outage_hours");
}

TEST(OptionTable, HubFlagThenTiersFileConfiguresOneHub) {
  ScenarioSpec spec;
  core::SystemConfig system;
  std::vector<std::string> args = {"vodcache", "run", "--hub-capacity-gb",
                                   "10"};
  std::vector<char*> argv;
  for (auto& arg : args) argv.push_back(arg.data());
  int i = 2;
  ASSERT_TRUE(apply_flag(4, argv.data(), i, {spec, system}));
  std::istringstream in("[tiers]\nhub_capacity_gb = 5\n");
  (void)parse_scenario(in, "tiers", system);
  ASSERT_EQ(system.tiers.size(), 1u);
  EXPECT_EQ(system.tiers[0].capacity, DataSize::gigabytes(5));
}

TEST(OptionTable, PolicySwitchWithoutStrategyIsACleanError) {
  core::SystemConfig system;
  system.strategy.kind = core::StrategyKind::None;
  std::istringstream in("[system]\npolicy_switch = 1\n");
  const auto spec = parse_scenario(in, "switch", system);
  try {
    check_options(system);
    FAIL() << "expected a cross-field error";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("needs a caching strategy"),
              std::string::npos)
        << error.what();
  }
  EXPECT_THROW(spec.validate(system), std::runtime_error);
  system.strategy.kind = core::StrategyKind::Lfu;
  EXPECT_NO_THROW(check_options(system));
}

TEST(OptionTable, SeedIsFullRangeOnBothSurfaces) {
  const auto* row = find_flag("--seed");
  ASSERT_NE(row, nullptr);
  for (const auto& surface :
       {via_flag(*row, "18446744073709551615"),
        via_file(*row, "18446744073709551615")}) {
    ASSERT_TRUE(surface);
    EXPECT_EQ(surface->spec.workload.seed,
              std::numeric_limits<std::uint64_t>::max());
  }
}

TEST(OptionTable, MissingValueNamesTheFlag) {
  ScenarioSpec spec;
  core::SystemConfig system;
  std::vector<std::string> args = {"vodcache", "run", "--days"};
  std::vector<char*> argv;
  for (auto& arg : args) argv.push_back(arg.data());
  int i = 2;
  try {
    (void)apply_flag(3, argv.data(), i, {spec, system});
    FAIL() << "expected a missing-value error";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("--days"), std::string::npos)
        << error.what();
  }
}

}  // namespace
}  // namespace vodcache::scenario
