#include "scenario/scenario.hpp"

#include <filesystem>
#include <fstream>
#include <istream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "scenario/adaptors.hpp"

namespace vodcache::scenario {

namespace {

[[noreturn]] void parse_fail(std::size_t line_number, const std::string& what) {
  std::ostringstream message;
  message << "scenario parse error at line " << line_number << ": " << what;
  throw std::runtime_error(message.str());
}

std::string_view trim(std::string_view text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t')) {
    text.remove_prefix(1);
  }
  while (!text.empty() &&
         (text.back() == ' ' || text.back() == '\t' || text.back() == '\r')) {
    text.remove_suffix(1);
  }
  return text;
}

}  // namespace

ScenarioSpec parse_scenario(std::istream& in, std::string name,
                            core::SystemConfig& system,
                            const trace::GeneratorConfig& base) {
  ScenarioSpec spec;
  spec.name = std::move(name);
  spec.workload = base;
  // Staged so a file that fails halfway leaves the caller's config alone.
  auto staged = system;
  const OptionTarget target{spec, staged};

  std::string line;
  std::size_t line_number = 0;
  std::string section;
  // (section, key) pairs already seen: a silently-ignored second value is
  // exactly the kind of config drift this format exists to prevent.
  std::map<std::pair<std::string, std::string>, std::size_t> seen;

  while (std::getline(in, line)) {
    ++line_number;
    const auto text = trim(line);
    if (text.empty() || text.front() == '#') continue;

    if (text.front() == '[') {
      if (text.back() != ']' || text.size() < 3) {
        parse_fail(line_number, "malformed section header (use [name])");
      }
      const auto header = trim(text.substr(1, text.size() - 2));
      const auto* entry = find_section(header);
      if (entry == nullptr) {
        parse_fail(line_number, std::string("unknown section [") +
                                    std::string(header) + "] (use " +
                                    section_keys() + ")");
      }
      if (seen.count({std::string(header), ""}) != 0) {
        parse_fail(line_number, std::string("duplicate section [") +
                                    std::string(header) + "]");
      }
      seen.emplace(std::pair{std::string(header), std::string()}, line_number);
      section = header;
      // A mechanism section's presence enables it, even when empty (the
      // defaults in its Spec struct then apply).
      if (entry->enable != nullptr) entry->enable(target);
      continue;
    }

    const auto eq = text.find('=');
    if (eq == std::string_view::npos) {
      parse_fail(line_number, "expected 'key = value' or '[section]'");
    }
    if (section.empty()) {
      parse_fail(line_number, "key before any [section] header");
    }
    const auto key = trim(text.substr(0, eq));
    const auto value = trim(text.substr(eq + 1));
    if (key.empty()) parse_fail(line_number, "empty key");
    if (value.empty()) {
      parse_fail(line_number,
                 std::string("empty value for '") + std::string(key) + "'");
    }
    const auto [it, inserted] =
        seen.emplace(std::pair{section, std::string(key)}, line_number);
    if (!inserted) {
      std::ostringstream message;
      message << "duplicate key '" << key << "' in section [" << section
              << "] (first set at line " << it->second << ")";
      parse_fail(line_number, message.str());
    }
    const auto* row = find_key(section, key);
    if (row == nullptr) {
      parse_fail(line_number, std::string("unknown key '") + std::string(key) +
                                  "' in section [" + section + "] (see " +
                                  section_option_keys(section) + ")");
    }
    try {
      apply_option(*row, key, value, target);
    } catch (const std::runtime_error& error) {
      parse_fail(line_number, error.what());
    }
  }
  if (spec.storm.enabled) apply_storm(spec.storm, staged);
  system = std::move(staged);
  return spec;
}

ScenarioSpec load_scenario_file(const std::string& path,
                                core::SystemConfig& system,
                                const trace::GeneratorConfig& base) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open scenario file: " + path);
  // File stem as the scenario's name: "examples/scenarios/flash_crowd.scn"
  // -> "flash_crowd".
  auto stem = std::filesystem::path(path).stem().string();
  return parse_scenario(in, std::move(stem), system, base);
}

void ScenarioSpec::validate(const core::SystemConfig& system) const {
  const auto horizon = sim::SimTime::days(workload.days);
  if (flash_crowd.enabled) check_fits(flash_crowd, horizon);
  if (release_waves.enabled) {
    if (release_waves.period > horizon) {
      scenario_error("release_waves period exceeds the workload horizon");
    }
    check_fits(release_waves, workload.program_count);
  }
  if (skew.enabled) {
    check_fits(skew, workload.program_count);
    if (skew.population_share == 0.0 && skew.regions == 0) {
      scenario_error(
          "neighborhood_skew enabled but both population_share and regions "
          "are off — delete the section or give it an effect");
    }
    if (skew.regions > 0 && skew.regional_affinity == 0.0) {
      scenario_error(
          "neighborhood_skew has regions but regional_affinity = 0; set an "
          "affinity or drop the regions key");
    }
  }
  if (storm.enabled) {
    if (storm.start > horizon) {
      scenario_error("failure_storm starts past the workload horizon");
    }
  }
  check_options(system);
  for (const auto& tier : system.tiers) {
    for (const auto& outage : tier.outages) {
      if (outage.start > horizon) {
        scenario_error("tiers outage starts past the workload horizon");
      }
    }
  }
}

void apply_storm(const FailureStormSpec& storm, core::SystemConfig& config) {
  for (std::uint32_t k = 0; k < storm.waves; ++k) {
    core::SystemConfig::PeerFailure wave;
    wave.time = storm.start + sim::SimTime::millis(
        static_cast<std::int64_t>(k) * storm.period.millis_count());
    wave.fraction = storm.fraction;
    // Distinct seed per wave: a storm that wipes the same peers every
    // time would measure one failure, not a storm.
    wave.seed = storm.seed + k;
    config.peer_failures.push_back(wave);
  }
}

void build_workload(std::vector<std::unique_ptr<trace::SessionSource>>& parts,
                    const ScenarioSpec& spec,
                    const core::SystemConfig& system) {
  spec.validate(system);
  parts.push_back(std::make_unique<trace::GeneratorSource>(spec.workload));
  // Skew first, flash crowd last: the premiere spike overrides background
  // churn, not the other way round (documented in scenario.hpp).
  if (spec.skew.enabled) {
    parts.push_back(std::make_unique<NeighborhoodSkewSource>(
        *parts.back(), spec.skew, system.neighborhood_size));
  }
  if (spec.release_waves.enabled) {
    parts.push_back(std::make_unique<ReleaseWavesSource>(
        *parts.back(), spec.release_waves));
  }
  if (spec.flash_crowd.enabled) {
    parts.push_back(
        std::make_unique<FlashCrowdSource>(*parts.back(), spec.flash_crowd));
  }
}

ScenarioWorkload::ScenarioWorkload(const ScenarioSpec& spec,
                                   const core::SystemConfig& system) {
  build_workload(parts_, spec, system);
}

}  // namespace vodcache::scenario
