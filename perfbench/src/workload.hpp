// The benchmark's four named replay workloads.  Each one is a generator
// configuration (the input) plus a SystemConfig (the program's settings);
// the program under test only ever sees the generated SessionSource and
// the SystemConfig.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "trace/generator.hpp"

namespace perfbench {

namespace core = vodcache::core;
namespace trace = vodcache::trace;

struct Workload {
  std::string name;
  trace::GeneratorConfig generator;
  core::SystemConfig system;
};

// Command-line overrides of a workload's stated size.  Unset fields keep
// the workload's own value.
struct WorkloadOverrides {
  std::optional<std::int32_t> days;
  std::optional<std::uint32_t> users;
  std::optional<std::uint32_t> threads;
};

// Names of every workload, in the order BENCHMARK.json lists them.
[[nodiscard]] const std::vector<std::string>& workload_names();

// Builds workload `name` for benchmark seed `seed`.  Seed 0 is the
// generator's default seed (20070625); seed n shifts it by n, and the
// failure-wave draws are derived from the same seed.  Threads are capped
// at the machine's hardware concurrency.  Returns nullopt for an unknown
// name.
[[nodiscard]] std::optional<Workload> make_workload(
    const std::string& name, std::uint64_t seed,
    const WorkloadOverrides& overrides = {});

// The input: a fresh streaming source (builds the catalog).
[[nodiscard]] std::unique_ptr<trace::GeneratorSource> make_source(
    const Workload& workload);

}  // namespace perfbench
