// vodbench: runs one named workload through vodcache's public API and
// prints its metrics.  perfbench/run.py builds it and is the command to
// use; see perfbench/README.md for the metrics and workloads.
//
//   vodbench --workload NAME [--seed N] [--seconds N] [--trace 0|1]
//            [--threads N] [--days N] [--users N]
//            [--commit TEXT] [--source-digest TEXT] [--spans PATH]
//
// --trace 0 repeats the untraced workload (source construction to
// serialized report) for --seconds and prints the end-to-end metrics.
// --trace 1 runs it once untraced, then once through the traced replay,
// and prints the per-layer metrics.  Both check every report and print,
// as their last line, one JSON object: correct, attempted, failed,
// metrics.  The exit code is 0 only when every check passed; a bad
// argument exits 2.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "checks.hpp"
#include "core/report_json.hpp"
#include "core/vod_system.hpp"
#include "span_trace.hpp"
#include "traced_replay.hpp"
#include "workload.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Set-ups timed on their own before the replay loop, so setup_s is a
// median over enough samples even when only a few replays fit.
constexpr int kSetupRepeats = 25;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Nearest-rank percentile (q in [0, 1]) of an unsorted sample.
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double peak_rss_mb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string number(double value) {
  std::ostringstream out;
  out << std::setprecision(std::numeric_limits<double>::max_digits10)
      << value;
  return out.str();
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  WorkloadOverrides overrides;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  std::string spans_path;
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "vodbench: " << error << "\n"
            << "usage: vodbench --workload NAME [--seed N] [--seconds N] "
               "[--trace 0|1] [--threads N] [--days N] [--users N] "
               "[--commit TEXT] [--source-digest TEXT] [--spans PATH]\n"
            << "workloads:";
  for (const auto& name : workload_names()) std::cerr << ' ' << name;
  std::cerr << '\n';
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& text, const std::string& flag,
                         std::uint64_t lo, std::uint64_t hi) {
  std::size_t used = 0;
  unsigned long long value = 0;
  try {
    value = std::stoull(text, &used);
  } catch (const std::exception&) {
    usage(flag + " needs a whole number, got '" + text + "'");
  }
  if (used != text.size() || text.front() == '-' || value < lo || value > hi) {
    usage(flag + " must be a whole number in [" + std::to_string(lo) + ", " +
          std::to_string(hi) + "], got '" + text + "'");
  }
  return value;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = parse_uint(value, arg, 0, 1'000'000'000);
    } else if (arg == "--seconds") {
      o.seconds = static_cast<double>(parse_uint(value, arg, 0, 3600));
    } else if (arg == "--trace") {
      o.trace = parse_uint(value, arg, 0, 1) == 1;
    } else if (arg == "--threads") {
      o.overrides.threads =
          static_cast<std::uint32_t>(parse_uint(value, arg, 1, 1024));
    } else if (arg == "--days") {
      o.overrides.days =
          static_cast<std::int32_t>(parse_uint(value, arg, 1, 366));
    } else if (arg == "--users") {
      o.overrides.users =
          static_cast<std::uint32_t>(parse_uint(value, arg, 1, 50'000'000));
    } else if (arg == "--commit") {
      o.commit = value;
    } else if (arg == "--source-digest") {
      o.source_digest = value;
    } else if (arg == "--spans") {
      o.spans_path = value;
    } else {
      usage("unknown argument " + arg);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

unsigned online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return static_cast<unsigned>(CPU_COUNT(&set));
}

void print_provenance(const Options& o, const Workload& w) {
  std::cout << "provenance {\"commit\":" << json_string(o.commit)
            << ",\"source_digest\":" << json_string(o.source_digest)
            << ",\"compiler\":" << json_string(compiler())
            << ",\"build_type\":" << json_string(PERFBENCH_BUILD_TYPE)
            << ",\"nproc\":" << online_cpus()
            << ",\"hardware_concurrency\":"
            << std::thread::hardware_concurrency()
            << ",\"workload\":" << json_string(w.name)
            << ",\"seed\":" << o.seed
            << ",\"generator_seed\":" << w.generator.seed
            << ",\"threads\":" << w.system.threads
            << ",\"horizon_days\":" << w.generator.days
            << ",\"users\":" << w.generator.user_count
            << ",\"trace\":" << (o.trace ? 1 : 0) << "}\n";
}

// Counts checked outputs and prints each failure as it happens.
struct Verdicts {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void record(const std::string& what, const std::vector<std::string>& errors) {
    ++attempted;
    if (errors.empty()) return;
    ++failed;
    for (const auto& e : errors) {
      std::cout << "CHECK FAILED (" << what << "): " << e << "\n";
    }
  }
};

int finish(const Verdicts& verdicts, const std::vector<Metric>& metrics) {
  const bool correct = verdicts.failed == 0;
  std::cout << "failed_frac "
            << number(static_cast<double>(verdicts.failed) /
                      static_cast<double>(std::max<std::uint64_t>(
                          verdicts.attempted, 1)))
            << " (" << verdicts.failed << " of " << verdicts.attempted
            << " checked outputs)\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << verdicts.attempted
            << ", \"failed\": " << verdicts.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& m = metrics[i];
    std::cout << (i == 0 ? "" : ", ") << json_string(m.name)
              << ": {\"value\": " << number(m.value)
              << ", \"unit\": " << json_string(m.unit) << "}";
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}

// One untraced replay: the report, its serialization, and its timings.
struct Replay {
  core::SimulationReport report;
  std::string json;
  double setup_s = 0.0;
  double run_s = 0.0;
  double serialize_s = 0.0;
  core::ExecutorStats executor;
};

// With a tracer, the serialization is recorded as a "report.serialize"
// span.
Replay replay_once(const Workload& w, std::uint32_t threads,
                   Tracer* tracer = nullptr) {
  Replay r;
  auto config = w.system;
  config.threads = threads;
  const auto t0 = Clock::now();
  auto source = make_source(w);
  core::VodSystem system(*source, config);
  r.setup_s = seconds_since(t0);
  const auto t1 = Clock::now();
  r.report = system.run();
  r.run_s = seconds_since(t1);
  const auto t2 = Clock::now();
  {
    const auto span = tracer ? tracer->begin("report.serialize") : 0;
    r.json = core::to_json(r.report);
    if (tracer) tracer->end(span);
  }
  r.serialize_s = seconds_since(t2);
  r.executor = system.executor_stats();
  return r;
}

// Checks a replay's report and that its digest matches the first one.
void check_replay(Verdicts& verdicts, const std::string& what,
                  const Replay& r, std::string& expected_digest) {
  auto errors = check_report(r.report);
  const auto d = digest(r.json);
  if (expected_digest.empty()) expected_digest = d;
  if (d != expected_digest) {
    errors.push_back("report digest " + d + " != " + expected_digest);
  }
  verdicts.record(what, errors);
}

int run_end_to_end(const Options& o, const Workload& w) {
  Verdicts verdicts;
  std::vector<double> setup;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto t0 = Clock::now();
    auto source = make_source(w);
    core::VodSystem system(*source, w.system);
    setup.push_back(seconds_since(t0));
  }

  std::string expected;
  std::vector<double> wall;
  std::vector<double> run;
  core::SimulationReport first;
  const auto start = Clock::now();
  do {
    Replay r = replay_once(w, w.system.threads);
    check_replay(verdicts, "replay " + std::to_string(wall.size()), r,
                 expected);
    setup.push_back(r.setup_s);
    run.push_back(r.run_s);
    wall.push_back(r.setup_s + r.run_s + r.serialize_s);
    std::cout << "replay " << wall.size() << " wall_s " << number(wall.back())
              << " run_s " << number(r.run_s) << "\n";
    if (wall.size() == 1) first = std::move(r.report);
  } while (seconds_since(start) < o.seconds);
  const double rss_mb = peak_rss_mb();

  // Determinism contract: a single-thread replay of the same input gives
  // the same bytes.
  if (w.system.threads > 1) {
    check_replay(verdicts, "single-thread reference", replay_once(w, 1),
                 expected);
  }

  std::cout << "setups " << setup.size() << ", setup_s min "
            << number(*std::min_element(setup.begin(), setup.end()))
            << " max " << number(*std::max_element(setup.begin(), setup.end()))
            << "\n";
  std::cout << "replays " << wall.size() << ", digest " << expected
            << " (every replay"
            << (w.system.threads > 1 ? " and the single-thread reference" : "")
            << " must match)\n";
  const std::vector<Metric> metrics = {
      {"wall_s", median(wall), "s"},
      {"setup_s", median(setup), "s"},
      {"sessions_per_sec", static_cast<double>(first.sessions) / median(run),
       "1/s"},
      {"peak_rss_mb", rss_mb, "MB"},
      {"hit_ratio", first.hit_ratio(), "ratio"},
      {"server_peak_gbps", first.server_peak.mean.gbps(), "Gb/s"},
  };
  for (const auto& m : metrics) {
    std::cout << "metric " << m.name << " " << number(m.value) << " " << m.unit
              << "\n";
  }
  return finish(verdicts, metrics);
}

double total_of(const std::map<std::string, SpanTotals>& totals,
                const std::string& name) {
  const auto it = totals.find(name);
  return it == totals.end() ? 0.0 : it->second.total_s;
}

double feed_total(const ReplayResult& r) {
  return std::accumulate(r.feed_s.begin(), r.feed_s.end(), 0.0);
}

int run_traced(const Options& o, const Workload& w) {
  Verdicts verdicts;
  Tracer tracer;

  std::unique_ptr<trace::GeneratorSource> source;
  {
    ScopedSpan span(tracer, "trace.catalog_build");
    source = make_source(w);
  }
  std::uint64_t sessions = 0;
  {
    ScopedSpan span(tracer, "trace.drain");
    auto stream = source->open();
    trace::SessionRecord record;
    while (stream->next(record)) ++sessions;
  }

  // Untraced: the report every traced count is checked against, plus the
  // executor's own statistics at the workload's thread count.
  std::string expected;
  const Replay untraced = replay_once(w, w.system.threads, &tracer);
  check_replay(verdicts, "untraced replay", untraced, expected);
  double single_thread_run_s = untraced.run_s;
  if (w.system.threads > 1) {
    const Replay reference = replay_once(w, 1);
    check_replay(verdicts, "single-thread reference", reference, expected);
    single_thread_run_s = reference.run_s;
  }
  const auto& report = untraced.report;
  const auto report_totals = totals_of(report);

  const ReplayResult traced = traced_replay(*source, w.system, tracer);
  verdicts.record("traced replay counters",
                  compare_totals(traced.counters, report_totals));

  // The shadow bank's share of feed time: the same traced replay with the
  // bank off.  The primary's counters must not move.
  double shadow_feed_s = 0.0;
  if (traced.shadow_cells > 0) {
    auto config = w.system;
    config.shadow_matrix = false;
    Tracer bankless;
    const ReplayResult without = traced_replay(*source, config, bankless);
    verdicts.record("traced replay without the shadow bank",
                    compare_totals(without.counters, report_totals));
    shadow_feed_s = feed_total(traced) - feed_total(without);
  }

  const auto totals = totals_by_name(tracer.spans());
  const auto& c = traced.counters;
  const auto& ex = untraced.executor;
  const double busy_s =
      std::accumulate(ex.worker_busy_ms.begin(), ex.worker_busy_ms.end(),
                      0.0) / 1000.0;
  const double workers = static_cast<double>(ex.worker_busy_ms.size());
  const double mean_busy =
      traced.shard_busy_s.empty()
          ? 0.0
          : std::accumulate(traced.shard_busy_s.begin(),
                            traced.shard_busy_s.end(), 0.0) /
                static_cast<double>(traced.shard_busy_s.size());
  const double max_busy =
      traced.shard_busy_s.empty()
          ? 0.0
          : *std::max_element(traced.shard_busy_s.begin(),
                              traced.shard_busy_s.end());
  const bool has_hub = report.tiers.size() > 1;
  std::vector<double> feed_us = traced.feed_s;
  for (auto& v : feed_us) v *= 1e6;
  const double cell_lookups =
      static_cast<double>(traced.shadow_cells) * static_cast<double>(c.segments);

  const std::vector<Metric> metrics = {
      {"trace.catalog_build_s", total_of(totals, "trace.catalog_build"), "s"},
      {"trace.drain_s", total_of(totals, "trace.drain"), "s"},
      {"trace.sessions", static_cast<double>(sessions), "count"},
      {"trace.next_s", total_of(totals, "trace.next"), "s"},
      {"trace.prepass_read_s", total_of(totals, "trace.prepass_read"), "s"},
      {"hfc.topology_build_s", total_of(totals, "hfc.topology_build"), "s"},
      {"hfc.tier.hub_requests",
       has_hub ? static_cast<double>(report.tiers[0].requests) : 0.0, "count"},
      {"hfc.tier.hub_hits",
       has_hub ? static_cast<double>(report.tiers[0].hits) : 0.0, "count"},
      {"core.executor.jobs", static_cast<double>(ex.executed), "count"},
      {"core.executor.steals", static_cast<double>(ex.steals), "count"},
      {"core.executor.busy_s", busy_s, "s"},
      {"core.executor.idle_s", workers * ex.wall_ms / 1000.0 - busy_s, "s"},
      {"core.executor.utilization", ex.utilization(), "ratio"},
      {"core.shard.build_s", total_of(totals, "core.shard.build"), "s"},
      {"core.shard.feed_s", total_of(totals, "core.shard.feed"), "s"},
      {"core.shard.feed_calls", static_cast<double>(traced.feed_s.size()),
       "count"},
      {"core.shard.feed_p50_us", percentile(feed_us, 0.50), "us"},
      {"core.shard.feed_p99_us", percentile(feed_us, 0.99), "us"},
      {"core.shard.finish_s", total_of(totals, "core.shard.finish"), "s"},
      {"core.shard.skew", mean_busy > 0.0 ? max_busy / mean_busy : 0.0,
       "ratio"},
      {"core.merge_s", total_of(totals, "core.merge"), "s"},
      {"core.unattributed_s", totals.at("core.run").self_s, "s"},
      {"cache.lookups", static_cast<double>(c.segments), "count"},
      {"cache.hits", static_cast<double>(c.hits), "count"},
      {"cache.fills", static_cast<double>(c.fills), "count"},
      {"cache.evictions", static_cast<double>(c.evictions), "count"},
      {"cache.admission_denials", static_cast<double>(c.admission_denials),
       "count"},
      {"cache.busy_misses", static_cast<double>(c.busy_misses), "count"},
      {"cache.peer_failures", static_cast<double>(c.peer_failures), "count"},
      {"cache.evictions_per_fill",
       c.fills > 0 ? static_cast<double>(c.evictions) /
                         static_cast<double>(c.fills)
                   : 0.0,
       "ratio"},
      {"cache.admit_ratio",
       c.fills + c.admission_denials > 0
           ? static_cast<double>(c.fills) /
                 static_cast<double>(c.fills + c.admission_denials)
           : 0.0,
       "ratio"},
      {"cache.prepass.board_s", total_of(totals, "cache.prepass.board"), "s"},
      {"cache.prepass.future_s", total_of(totals, "cache.prepass.future"),
       "s"},
      {"cache.prepass.tier_plan_s",
       total_of(totals, "cache.prepass.tier_plan"), "s"},
      {"cache.shadow.cells", static_cast<double>(traced.shadow_cells),
       "count"},
      {"cache.shadow.feed_s", shadow_feed_s, "s"},
      {"cache.shadow.ns_per_cell_lookup",
       cell_lookups > 0.0 ? shadow_feed_s * 1e9 / cell_lookups : 0.0, "ns"},
      {"report.serialize_s", total_of(totals, "report.serialize"), "s"},
      {"report.bytes", static_cast<double>(untraced.json.size()), "bytes"},
      {"tracing.overhead_ratio",
       total_of(totals, "core.run") / single_thread_run_s, "ratio"},
  };

  std::cout << "digest " << expected << ", " << tracer.spans().size()
            << " spans; attribution by full traced replay, no differential"
               " fallback\n";
  for (const auto& m : metrics) {
    std::cout << "metric " << m.name << " " << number(m.value) << " " << m.unit
              << "\n";
  }
  if (!o.spans_path.empty()) {
    std::ofstream out(o.spans_path);
    tracer.write_jsonl(out);
    if (!out) {
      verdicts.record("span file", {"cannot write " + o.spans_path});
    } else {
      std::cout << "spans written to " << o.spans_path << "\n";
    }
  }
  return finish(verdicts, metrics);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options options = parse(argc, argv);
  const auto workload =
      make_workload(options.workload, options.seed, options.overrides);
  if (!workload) usage("unknown workload '" + options.workload + "'");
  print_provenance(options, *workload);
  try {
    return options.trace ? run_traced(options, *workload)
                         : run_end_to_end(options, *workload);
  } catch (const std::exception& e) {
    std::cerr << "vodbench: " << e.what() << "\n";
    return 1;
  }
}
