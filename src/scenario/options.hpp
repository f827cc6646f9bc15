// The option table: every configuration key a run accepts, written once.
//
// A row names a key's spellings — a CLI flag, a scenario-file
// `[section] key`, or both — its value kind and bounds, one help line, and
// the one setter that writes the parsed value into the run's
// configuration.  The CLI's argv loop, the scenario-file parser, `vodcache
// --help` and `--list-scenarios` all read this table, so the two surfaces
// cannot drift.  Values are strict: a malformed, overflowing or
// out-of-range value is a std::runtime_error naming the spelling used,
// never a clamp or a silent default.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace vodcache::core {
struct SystemConfig;
}

namespace vodcache::scenario {

struct ScenarioSpec;

// Bounds the rows share: generous enough for any realistic deployment,
// tight enough that downstream millisecond/bit conversions cannot
// overflow int64.
inline constexpr std::int64_t kMaxDays = 100'000;  // ~270 years
inline constexpr std::int64_t kMaxHours = kMaxDays * 24;
inline constexpr std::int64_t kMaxIdCount = 0xFFFFFFFF;  // uint32 ids
inline constexpr std::int64_t kMaxGigabytes = 1'000'000'000;  // 1 exabyte

// What a setter writes into: the run's scenario (workload, adaptor specs,
// summary) and its system configuration.
struct OptionTarget {
  ScenarioSpec& scenario;
  core::SystemConfig& system;
};

enum class OptionKind {
  Int,        // integer in [lo, hi]
  Double,     // finite number in [lo, hi]
  Fraction,   // number in (0, 1]
  Seed,       // any uint64
  Scorer,     // a PolicyRegistry eviction-scorer key
  Admission,  // a PolicyRegistry admission-policy key
  Prefetch,   // a PolicyRegistry prefetch-policy key
  Flag,       // bare CLI flag; 0|1 in a scenario file
  Text,       // free text (the rest of the line)
};

// A parsed value; the row's kind says which member is set.
struct OptionValue {
  std::int64_t integer = 0;
  double number = 0.0;
  std::uint64_t seed = 0;
  std::string_view text;
};

struct OptionRow {
  const char* section;  // scenario-file section; also the --help group
  const char* key;      // scenario-file key, nullptr: CLI flag only
  const char* flag;     // CLI flag, nullptr: scenario file only
  OptionKind kind;
  double lo;  // Int / Double / Flag bounds, inclusive
  double hi;
  const char* help;
  void (*set)(OptionTarget target, const OptionValue& value);
};

[[nodiscard]] std::span<const OptionRow> option_table();
[[nodiscard]] const OptionRow* find_flag(std::string_view flag);
[[nodiscard]] const OptionRow* find_key(std::string_view section,
                                        std::string_view key);
// "days, users, ..." — one section's scenario-file keys in table order.
[[nodiscard]] std::string section_option_keys(std::string_view section);
// The accepted range or names ("1..100000", "none|lru|..."); empty for
// Flag and Text.
[[nodiscard]] std::string value_range(const OptionRow& row);

// Parses `text` as `row`'s kind and writes it into `target`.  Throws
// std::runtime_error naming `spelling` (the flag or key used) on a
// malformed or out-of-range value.
void apply_option(const OptionRow& row, std::string_view spelling,
                  std::string_view text, OptionTarget target);

// The CLI surface: when argv[i] is a config flag, applies it with its
// value (argv[i + 1], none for a bare flag), leaves `i` on the last
// argument used and returns true; returns false for any other argument.
bool apply_flag(int argc, char** argv, int& i, OptionTarget target);

// Strict whole-string parsers behind the table, shared with the CLI's
// non-config flags.  Throw std::runtime_error naming `name`.
[[nodiscard]] std::int64_t parse_int(std::string_view name,
                                     std::string_view text, std::int64_t lo,
                                     std::int64_t hi);
[[nodiscard]] double parse_fraction(std::string_view name,
                                    std::string_view text);

// Cross-field checks no single row can make, run by both surfaces on the
// final configuration: capacity products that would overflow the byte
// range, a policy switch without a cached set to hand over, and a hub
// outage given only one of its two keys.  Throws std::runtime_error.
void check_options(const core::SystemConfig& system);

// One recognized scenario-file section: its header spelling, a one-line
// summary, and what its presence alone turns on (nullptr: nothing).
struct SectionEntry {
  const char* key;
  const char* summary;
  void (*enable)(OptionTarget target);
};

[[nodiscard]] std::span<const SectionEntry> section_registry();
[[nodiscard]] const SectionEntry* find_section(std::string_view key);
// "scenario|workload|..." — for error messages, derived so they cannot
// drift from the registry.
[[nodiscard]] std::string section_keys();

}  // namespace vodcache::scenario
