#include "scenario/adaptors.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace vodcache::scenario {

namespace {

// Clamp a remapped session inside its new program.
void retarget(trace::SessionRecord& record, std::uint32_t program,
              const trace::Catalog& catalog) {
  record.program = ProgramId{program};
  record.duration = std::min(record.duration, catalog.length(record.program));
}

class FlashCrowdStream final : public trace::SessionStream {
 public:
  FlashCrowdStream(std::unique_ptr<trace::SessionStream> input,
                   const FlashCrowdSpec& spec, ProgramId target,
                   const trace::Catalog& catalog)
      : input_(std::move(input)),
        begin_(spec.start),
        end_(spec.start + spec.duration),
        capture_(spec.capture),
        target_(target.value()),
        catalog_(&catalog),
        rng_(spec.seed) {}

  bool next(trace::SessionRecord& out) override {
    if (!input_->next(out)) return false;
    if (out.start >= begin_ && out.start < end_ &&
        rng_.uniform_double() < capture_) {
      retarget(out, target_, *catalog_);
    }
    return true;
  }

 private:
  std::unique_ptr<trace::SessionStream> input_;
  const sim::SimTime begin_;
  const sim::SimTime end_;
  const double capture_;
  const std::uint32_t target_;
  const trace::Catalog* catalog_;
  Rng rng_;
};

class ReleaseWavesStream final : public trace::SessionStream {
 public:
  ReleaseWavesStream(std::unique_ptr<trace::SessionStream> input,
                     const ReleaseWavesSpec& spec,
                     const std::vector<std::vector<std::uint32_t>>& blocks,
                     const trace::Catalog& catalog)
      : input_(std::move(input)),
        period_ms_(spec.period.millis_count()),
        window_(spec.window),
        capture_(spec.capture),
        blocks_(&blocks),
        catalog_(&catalog),
        rng_(spec.seed) {}

  bool next(trace::SessionRecord& out) override {
    if (!input_->next(out)) return false;
    const auto k =
        static_cast<std::size_t>(out.start.millis_count() / period_ms_);
    const auto wave_begin = sim::SimTime::millis(
        static_cast<std::int64_t>(k) * period_ms_);
    const auto& block = (*blocks_)[k];
    if (out.start - wave_begin < window_ && !block.empty() &&
        rng_.uniform_double() < capture_) {
      retarget(out, block[rng_.uniform_u64(block.size())], *catalog_);
    }
    return true;
  }

 private:
  std::unique_ptr<trace::SessionStream> input_;
  const std::int64_t period_ms_;
  const sim::SimTime window_;
  const double capture_;
  const std::vector<std::vector<std::uint32_t>>* blocks_;
  const trace::Catalog* catalog_;
  Rng rng_;
};

class NeighborhoodSkewStream final : public trace::SessionStream {
 public:
  NeighborhoodSkewStream(std::unique_ptr<trace::SessionStream> input,
                         const NeighborhoodSkewSpec& spec,
                         const hfc::Topology& topology,
                         const std::vector<std::uint32_t>& hot_users,
                         const std::vector<std::vector<std::uint32_t>>& regions,
                         const trace::Catalog& catalog)
      : input_(std::move(input)),
        spec_(&spec),
        topology_(&topology),
        hot_users_(&hot_users),
        regions_(&regions),
        catalog_(&catalog),
        rng_(spec.seed) {}

  bool next(trace::SessionRecord& out) override {
    if (!input_->next(out)) return false;
    if (spec_->population_share > 0.0 &&
        rng_.uniform_double() < spec_->population_share) {
      out.user =
          UserId{(*hot_users_)[rng_.uniform_u64(hot_users_->size())]};
    }
    if (spec_->regions > 0) {
      const auto n = topology_->neighborhood_of(out.user).value();
      const auto& slice = (*regions_)[n % spec_->regions];
      if (!slice.empty() && rng_.uniform_double() < spec_->regional_affinity) {
        retarget(out, slice[rng_.uniform_u64(slice.size())], *catalog_);
      }
    }
    return true;
  }

 private:
  std::unique_ptr<trace::SessionStream> input_;
  const NeighborhoodSkewSpec* spec_;
  const hfc::Topology* topology_;
  const std::vector<std::uint32_t>* hot_users_;
  const std::vector<std::vector<std::uint32_t>>* regions_;
  const trace::Catalog* catalog_;
  Rng rng_;
};

}  // namespace

void scenario_error(const std::string& what) {
  throw std::runtime_error("scenario: " + what);
}

void check_fits(const FlashCrowdSpec& spec, sim::SimTime horizon) {
  if (spec.start + spec.duration > horizon) {
    scenario_error("flash_crowd window ends past the workload horizon (" +
                   std::to_string(horizon.millis_count() /
                                  sim::SimTime::hours(1).millis_count()) +
                   " h)");
  }
}

void check_fits(const ReleaseWavesSpec& spec, std::uint32_t catalog_size) {
  if (spec.wave_size == 0 || spec.wave_size > catalog_size) {
    scenario_error("release_waves wave_size must be in [1, catalog size]");
  }
}

void check_fits(const NeighborhoodSkewSpec& spec, std::uint32_t catalog_size) {
  if (spec.regions > catalog_size) {
    scenario_error("neighborhood_skew regions exceeds the catalog size");
  }
}

FlashCrowdSource::FlashCrowdSource(const trace::SessionSource& input,
                                   const FlashCrowdSpec& spec)
    : input_(&input), spec_(spec) {
  check_fits(spec, input.horizon());
  // Rank the programs available at the window start by base weight (ties:
  // lower id), then pick the title_rank-th — "the premiere everyone tunes
  // into" is the hottest thing actually on the shelf.
  const auto& programs = input.catalog().programs();
  std::vector<std::uint32_t> available;
  for (std::uint32_t i = 0; i < programs.size(); ++i) {
    if (programs[i].introduced <= spec.start) available.push_back(i);
  }
  if (spec.title_rank == 0 || spec.title_rank > available.size()) {
    std::ostringstream message;
    message << "flash_crowd title_rank " << spec.title_rank << " out of range:"
            << " only " << available.size()
            << " programs are introduced by the window start";
    scenario_error(message.str());
  }
  std::nth_element(
      available.begin(), available.begin() + (spec.title_rank - 1),
      available.end(), [&](std::uint32_t a, std::uint32_t b) {
        if (programs[a].base_weight != programs[b].base_weight) {
          return programs[a].base_weight > programs[b].base_weight;
        }
        return a < b;
      });
  target_ = ProgramId{available[spec.title_rank - 1]};
}

std::unique_ptr<trace::SessionStream> FlashCrowdSource::open() const {
  return std::make_unique<FlashCrowdStream>(input_->open(), spec_, target_,
                                            input_->catalog());
}

ReleaseWavesSource::ReleaseWavesSource(const trace::SessionSource& input,
                                       const ReleaseWavesSpec& spec)
    : input_(&input), spec_(spec) {
  const auto catalog_size =
      static_cast<std::uint32_t>(input.catalog().size());
  check_fits(spec, catalog_size);
  const auto period_ms = spec.period.millis_count();
  const auto waves = static_cast<std::size_t>(
      (input.horizon().millis_count() + period_ms - 1) / period_ms);
  const auto& programs = input.catalog().programs();
  blocks_.resize(waves);
  for (std::size_t k = 0; k < waves; ++k) {
    const auto wave_begin =
        sim::SimTime::millis(static_cast<std::int64_t>(k) * period_ms);
    auto& block = blocks_[k];
    block.reserve(spec.wave_size);
    for (std::uint32_t j = 0; j < spec.wave_size; ++j) {
      const auto id = static_cast<std::uint32_t>(
          (static_cast<std::uint64_t>(k) * spec.wave_size + j) % catalog_size);
      if (programs[id].introduced <= wave_begin) block.push_back(id);
    }
  }
}

std::unique_ptr<trace::SessionStream> ReleaseWavesSource::open() const {
  return std::make_unique<ReleaseWavesStream>(input_->open(), spec_, blocks_,
                                              input_->catalog());
}

NeighborhoodSkewSource::NeighborhoodSkewSource(
    const trace::SessionSource& input, const NeighborhoodSkewSpec& spec,
    std::uint32_t neighborhood_size)
    : input_(&input),
      spec_(spec),
      topology_(hfc::Topology::build(input.user_count(), neighborhood_size)) {
  if (spec.hot_neighborhoods == 0 ||
      spec.hot_neighborhoods > topology_.neighborhood_count()) {
    std::ostringstream message;
    message << "neighborhood_skew hot_neighborhoods " << spec.hot_neighborhoods
            << " out of range: the run has " << topology_.neighborhood_count()
            << " neighborhoods (users / neighborhood size)";
    scenario_error(message.str());
  }
  if (spec.population_share > 0.0) {
    for (std::uint32_t u = 0; u < input.user_count(); ++u) {
      if (topology_.neighborhood_of(UserId{u}).value() <
          spec.hot_neighborhoods) {
        hot_users_.push_back(u);
      }
    }
    // hot_neighborhoods >= 1 and every neighborhood is non-empty by
    // construction, so the hot block cannot be empty.
    VODCACHE_ASSERT(!hot_users_.empty());
  }
  if (spec.regions > 0) {
    const auto& programs = input.catalog().programs();
    const auto catalog_size = static_cast<std::uint32_t>(programs.size());
    check_fits(spec, catalog_size);
    region_programs_.resize(spec.regions);
    // Slice r covers the contiguous id range [r*C/R, (r+1)*C/R); only
    // back-catalog programs (introduced at or before time 0) are redirect
    // targets, so a remap can never precede its program's introduction.
    for (std::uint32_t r = 0; r < spec.regions; ++r) {
      const auto begin = static_cast<std::uint32_t>(
          static_cast<std::uint64_t>(r) * catalog_size / spec.regions);
      const auto end = static_cast<std::uint32_t>(
          static_cast<std::uint64_t>(r + 1) * catalog_size / spec.regions);
      for (std::uint32_t id = begin; id < end; ++id) {
        if (programs[id].introduced <= sim::SimTime{}) {
          region_programs_[r].push_back(id);
        }
      }
    }
  }
}

std::unique_ptr<trace::SessionStream> NeighborhoodSkewSource::open() const {
  return std::make_unique<NeighborhoodSkewStream>(
      input_->open(), spec_, topology_, hot_users_, region_programs_,
      input_->catalog());
}

}  // namespace vodcache::scenario
