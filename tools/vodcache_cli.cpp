// vodcache — command-line HFC VoD deployment planner.
//
// Generates (or loads) a workload, deploys the cooperative cache, replays
// the trace, and reports what the central servers, headend fiber feeds,
// and neighborhood coax must sustain.
//
//   vodcache run   [options]        simulate and report
//   vodcache gen   [options] FILE   write a synthetic trace as CSV
//   vodcache demand [options]       no-cache demand profile only (fast)
//   vodcache --help                 every option, from the option table
//
// The workload is streamed: sessions are generated (or read) lazily and
// consumed incrementally, so memory stays flat in the horizon and the user
// count — a million-user multi-day run fits in commodity RAM.  `--materialize`
// forces the old buffer-everything path; its report is byte-identical.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/load_analysis.hpp"
#include "analysis/table.hpp"
#include "core/policy_registry.hpp"
#include "core/report_json.hpp"
#include "core/vod_system.hpp"
#include "scenario/scenario.hpp"
#include "trace/csv_io.hpp"
#include "trace/generator.hpp"
#include "trace/scaler.hpp"
#include "trace/session_source.hpp"

namespace {

using namespace vodcache;

struct CliOptions {
  std::string command;
  // The run's workload and adaptor stack.  Config flags and a --scenario
  // file write it and `system` through the one option table.
  scenario::ScenarioSpec scenario;
  core::SystemConfig system;
  bool scenario_file = false;
  std::string trace_path;
  std::uint32_t scale_pop = 1;
  std::uint32_t scale_cat = 1;
  bool materialize = false;
  std::string output_path;   // gen: trace CSV destination
  std::string json_path;     // run: "-" = stdout
  bool emit_json = false;
};

[[noreturn]] void usage(const std::string& message) {
  std::cerr << "vodcache: " << message << "\n\n"
            << "usage: vodcache run|gen|demand [options]  (see vodcache "
               "--help)\n";
  std::exit(2);
}

// Every option: the hand-written non-config flags, then the option
// table's flag rows with the scenario-file key each one shares.
[[noreturn]] void help() {
  std::cout <<
      "usage: vodcache run|gen|demand [options]   (gen also takes an output "
      "FILE)\n\n"
      "  --trace FILE      load a trace CSV instead of generating\n"
      "  --scenario FILE   load a scenario file; later flags override it\n"
      "  --scale-pop N     population x N (paper sec. V-A)\n"
      "  --scale-cat N     catalog x N (paper sec. V-A)\n"
      "  --materialize     buffer the trace in memory (same report)\n"
      "  --fail T F        wipe fraction F of peers at hour T (repeatable)\n"
      "  --json [FILE]     emit the report as JSON (- = stdout)\n"
      "  --list-strategies, --list-tiers, --list-scenarios, --help\n\n"
      "configuration (flag, scenario-file key, what it sets [values]):\n";
  for (const auto& row : scenario::option_table()) {
    if (row.flag == nullptr) continue;
    std::string key = "-";
    if (row.key != nullptr) {
      key = std::string("[") + row.section + "] " + row.key;
    }
    std::cout << "  " << std::left << std::setw(26) << row.flag
              << std::setw(30) << key << row.help;
    if (const auto range = scenario::value_range(row); !range.empty()) {
      std::cout << " [" << range << "]";
    }
    std::cout << '\n';
  }
  std::exit(0);
}

[[noreturn]] void list_strategies() {
  analysis::Table scorers({"strategy", "report name", "what it does"});
  for (const auto& entry : core::scorer_registry()) {
    scorers.add_row({entry.key, entry.display, entry.summary});
  }
  std::cout << "eviction strategies (--strategy):\n";
  scorers.print(std::cout);

  analysis::Table admissions({"policy", "report name", "what it does"});
  for (const auto& entry : core::admission_registry()) {
    admissions.add_row({entry.key, entry.display, entry.summary});
  }
  std::cout << "\nadmission policies (--admission-policy):\n";
  admissions.print(std::cout);
  std::exit(0);
}

[[noreturn]] void list_tiers() {
  analysis::Table prefetches({"prefetch", "report name", "what it does"});
  for (const auto& entry : core::prefetch_registry()) {
    prefetches.add_row({entry.key, entry.display, entry.summary});
  }
  std::cout << "hub prefetch policies (--prefetch):\n";
  prefetches.print(std::cout);
  std::exit(0);
}

[[noreturn]] void list_scenarios() {
  analysis::Table sections({"section", "keys", "what it does"});
  for (const auto& entry : scenario::section_registry()) {
    sections.add_row(
        {entry.key, scenario::section_option_keys(entry.key), entry.summary});
  }
  std::cout << "scenario file sections (--scenario; see "
               "examples/scenarios/*.scn):\n";
  sections.print(std::cout);
  std::exit(0);
}

// --help and the registry listings print and exit wherever they appear.
void print_if_info(const std::string& arg) {
  if (arg == "--help" || arg == "-h") help();
  if (arg == "--list-strategies") list_strategies();
  if (arg == "--list-scenarios") list_scenarios();
  if (arg == "--list-tiers") list_tiers();
}

CliOptions parse(int argc, char** argv) {
  if (argc < 2) usage("missing command");
  CliOptions options;
  options.command = argv[1];
  print_if_info(options.command);
  options.scenario.workload.days = 21;
  const scenario::OptionTarget target{options.scenario, options.system};

  auto need_value = [&](int& i) -> std::string {
    if (i + 1 >= argc) {
      throw std::runtime_error(std::string("missing value for ") + argv[i]);
    }
    return argv[++i];
  };

  // Malformed, overflowing or out-of-range values are usage errors (exit
  // 2), never library precondition aborts.
  try {
    for (int i = 2; i < argc; ++i) {
      if (scenario::apply_flag(argc, argv, i, target)) continue;
      const std::string arg = argv[i];
      print_if_info(arg);
      if (arg == "--trace") {
        options.trace_path = need_value(i);
      } else if (arg == "--scenario") {
        if (options.scenario_file) usage("--scenario given twice");
        // Applied in option order: the file's keys override flags given
        // before it, keys it omits keep their earlier values, and any
        // later flag overrides the file.
        options.scenario = scenario::load_scenario_file(
            need_value(i), options.system, options.scenario.workload);
        options.scenario_file = true;
      } else if (arg == "--scale-pop") {
        options.scale_pop = static_cast<std::uint32_t>(
            scenario::parse_int(arg, need_value(i), 1, 10'000));
      } else if (arg == "--scale-cat") {
        options.scale_cat = static_cast<std::uint32_t>(
            scenario::parse_int(arg, need_value(i), 1, 10'000));
      } else if (arg == "--materialize") {
        options.materialize = true;
      } else if (arg == "--fail") {
        core::SystemConfig::PeerFailure failure;
        failure.time = sim::SimTime::hours(
            scenario::parse_int(arg, need_value(i), 0, scenario::kMaxHours));
        failure.fraction = scenario::parse_fraction(arg, need_value(i));
        options.system.peer_failures.push_back(failure);
      } else if (arg == "--json") {
        options.emit_json = true;
        // Optional value: a path, or an explicit "-" for stdout (also the
        // default when the next token is another option).
        if (i + 1 < argc &&
            (argv[i + 1][0] != '-' || std::strcmp(argv[i + 1], "-") == 0)) {
          options.json_path = argv[++i];
        } else {
          options.json_path = "-";
        }
      } else if (options.command == "gen" && options.output_path.empty() &&
                 arg[0] != '-') {
        options.output_path = arg;
      } else {
        usage("unknown option: " + arg);
      }
    }
    scenario::check_options(options.system);
  } catch (const std::exception& error) {
    usage(error.what());
  }
  if (options.scenario_file && !options.trace_path.empty()) {
    usage("--scenario defines its own generated workload; it cannot combine "
          "with --trace");
  }
  // Scaling adaptors on top would quietly change the declared workload:
  // population copies land outside the skew adaptor's topology and random
  // catalog remaps dissolve flash-crowd/release-wave targets.  Scale a
  // scenario inside the file (users/programs keys) instead.
  if (options.scenario_file &&
      (options.scale_pop > 1 || options.scale_cat > 1)) {
    usage("--scenario cannot combine with --scale-pop/--scale-cat; set the "
          "scenario file's [workload] users/programs instead");
  }
  // Generated workloads: the scaled id spaces are known before the (costly)
  // source is built — reject overflow here.  CSV workloads re-check after
  // the file's header is read (open_source).
  const auto& workload = options.scenario.workload;
  if (options.trace_path.empty()) {
    if (static_cast<std::uint64_t>(workload.user_count) * options.scale_pop >
        0xFFFFFFFFULL) {
      usage("--users x --scale-pop overflows the 32-bit user id space");
    }
    if (static_cast<std::uint64_t>(workload.program_count) *
            options.scale_cat >
        0xFFFFFFFFULL) {
      usage("--programs x --scale-cat overflows the 32-bit program id space");
    }
  }
  return options;
}

// The workload as a lazy source chain: generator or CSV file at the base,
// optionally wrapped by the section V-A scaling adaptors.  `parts` keeps
// every link alive (unique_ptrs, so the pointees — which the links point
// into — stay put when the chain moves); `tip()` is the composed workload.
// With `--materialize`, the workload is held as an in-memory Trace and
// exposed through a TraceSource — byte-identical results, RAM
// proportional to the session count (the cross-check path).
struct SourceChain {
  std::vector<std::unique_ptr<trace::SessionSource>> parts;
  std::vector<std::unique_ptr<trace::Trace>> traces;  // TraceSource backing

  [[nodiscard]] const trace::SessionSource& tip() const {
    return *parts.back();
  }

  void materialize_tip() {
    traces.push_back(
        std::make_unique<trace::Trace>(trace::materialize(tip())));
    parts.push_back(std::make_unique<trace::TraceSource>(*traces.back()));
  }
};

SourceChain open_source(const CliOptions& options) {
  SourceChain chain;
  if (!options.trace_path.empty()) {
    std::cerr << "loading trace " << options.trace_path << "...\n";
    if (options.materialize) {
      // The materialized loader tolerates what a streaming pass cannot
      // (unsorted sessions, meta after sessions): it buffers and re-sorts.
      chain.traces.push_back(std::make_unique<trace::Trace>(
          trace::read_csv_file(options.trace_path)));
      chain.parts.push_back(
          std::make_unique<trace::TraceSource>(*chain.traces.back()));
    } else {
      chain.parts.push_back(
          std::make_unique<trace::CsvSource>(options.trace_path));
    }
  } else {
    const auto& workload = options.scenario.workload;
    std::cerr << "generating " << workload.days << "-day workload ("
              << workload.user_count << " users, " << workload.program_count
              << " programs)...\n";
    if (options.scenario_file) {
      std::cerr << "applying scenario '" << options.scenario.name << "'";
      if (!options.scenario.summary.empty()) {
        std::cerr << " (" << options.scenario.summary << ")";
      }
      std::cerr << "...\n";
    }
    // Validated against the *final* workload and system — later CLI flags
    // may have overridden the file's keys (the skew adaptor replays the
    // final neighborhood placement).  Without a scenario file no adaptor
    // section is enabled, so this is the bare generator.
    scenario::build_workload(chain.parts, options.scenario, options.system);
  }
  const bool scaled = options.scale_pop > 1 || options.scale_cat > 1;
  if (options.scale_pop > 1) {
    if (static_cast<std::uint64_t>(chain.tip().user_count()) *
            options.scale_pop >
        0xFFFFFFFFULL) {
      usage("--scale-pop overflows the 32-bit user id space");
    }
    const auto& base = chain.tip();
    chain.parts.push_back(std::make_unique<trace::PopulationScaledSource>(
        base, options.scale_pop));
  }
  if (options.scale_cat > 1) {
    if (static_cast<std::uint64_t>(chain.tip().catalog().size()) *
            options.scale_cat >
        0xFFFFFFFFULL) {
      usage("--scale-cat overflows the 32-bit program id space");
    }
    const auto& base = chain.tip();
    chain.parts.push_back(std::make_unique<trace::CatalogScaledSource>(
        base, options.scale_cat));
  }
  // A loaded --materialize trace is already in memory; only re-materialize
  // when adaptors (or the generator) sit on top.
  if (options.materialize && (scaled || options.trace_path.empty())) {
    std::cerr << "materializing " << (scaled ? "scaled " : "")
              << "trace in memory...\n";
    chain.materialize_tip();
  }
  return chain;
}

int cmd_gen(const CliOptions& options) {
  if (options.output_path.empty()) usage("gen needs an output file");
  const auto chain = open_source(options);
  const auto count =
      trace::write_csv_file(chain.tip(), options.output_path);
  std::cerr << "wrote " << count << " sessions to " << options.output_path
            << '\n';
  return 0;
}

int cmd_demand(const CliOptions& options) {
  const auto chain = open_source(options);
  // One metering pass serves both views (a pass regenerates the whole
  // stream, which is the dominant cost at scale).
  const auto meter =
      analysis::demand_meter(chain.tip(), options.system.stream_rate);
  const auto profile = meter.hourly_profile();
  analysis::Table table({"hour", "Gb/s"});
  for (int h = 0; h < 24; ++h) {
    table.add_row({std::to_string(h),
                   analysis::Table::num(profile[h].gbps(), 2)});
  }
  table.print(std::cout);
  const auto half_horizon =
      sim::SimTime::millis(chain.tip().horizon().millis_count() / 2);
  const auto peak =
      sim::peak_stats(meter, options.system.peak_window,
                      std::min(options.system.warmup, half_horizon));
  std::cout << "peak-window demand: " << peak.mean.gbps() << " Gb/s\n";
  return 0;
}

int cmd_run(const CliOptions& options) {
  const auto chain = open_source(options);
  const auto& source = chain.tip();
  const auto demand =
      analysis::demand_peak(source, options.system.stream_rate,
                            options.system.peak_window, options.system.warmup);

  std::cerr << "simulating " << core::to_string(options.system.strategy.kind);
  if (options.system.strategy.kind != core::StrategyKind::None &&
      options.system.admission_policy.kind != core::AdmissionKind::Always) {
    std::cerr << " + " << core::to_string(options.system.admission_policy.kind)
              << " admission";
  }
  std::cerr << " / " << options.system.neighborhood_size << " peers x "
            << options.system.per_peer_storage.as_gigabytes() << " GB ("
            << core::to_string(options.system.admission) << " admission, "
            << options.system.threads << " thread"
            << (options.system.threads == 1 ? "" : "s") << ", "
            << (options.materialize ? "materialized" : "streaming")
            << ")...\n";
  core::VodSystem system(source, options.system);
  const auto report = system.run();

  // With --json to stdout, stdout must stay machine-parseable: route the
  // human-readable summary to stderr instead.
  const bool json_on_stdout = options.emit_json && options.json_path == "-";
  std::ostream& human = json_on_stdout ? std::cerr : std::cout;

  human << report.to_string();
  human << "no-cache demand:  " << demand.mean.gbps() << " Gb/s\n"
        << "reduction:        "
        << analysis::Table::num(100.0 * report.reduction_vs(demand.mean), 1)
        << "%\n";

  // Headend fiber provisioning summary (max over neighborhoods).
  double fiber_q95 = 0.0;
  for (const auto& n : report.neighborhoods) {
    fiber_q95 = std::max(fiber_q95, n.fiber_peak.q95.mbps());
  }
  human << "worst headend fiber feed (p95): "
        << analysis::Table::num(fiber_q95, 0) << " Mb/s\n";

  if (options.emit_json) {
    if (options.json_path == "-") {
      core::write_json(report, std::cout);
      std::cout << '\n';
    } else {
      std::ofstream out(options.json_path);
      if (!out) {
        std::cerr << "cannot write " << options.json_path << '\n';
        return 1;
      }
      core::write_json(report, out);
      std::cerr << "wrote JSON report to " << options.json_path << '\n';
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = parse(argc, argv);
  try {
    if (options.command == "run") return cmd_run(options);
    if (options.command == "gen") return cmd_gen(options);
    if (options.command == "demand") return cmd_demand(options);
  } catch (const std::exception& error) {
    std::cerr << "vodcache: " << error.what() << '\n';
    return 1;
  }
  usage("unknown command: " + options.command);
}
