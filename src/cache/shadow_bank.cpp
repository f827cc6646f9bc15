#include "cache/shadow_bank.hpp"

#include <utility>

#include "util/assert.hpp"

namespace vodcache::cache {

ShadowBank::ShadowBank(std::vector<CacheCell> cells,
                       const sim::RateMeter* coax,
                       const hfc::ViewerOccupancy* viewers)
    : coax_(coax),
      viewers_(viewers),
      cells_(std::move(cells)),
      counters_(cells_.size()) {
  VODCACHE_EXPECTS(coax != nullptr && viewers != nullptr);
  VODCACHE_EXPECTS(!cells_.empty() && cells_.size() <= kMaxPairs);
  for (const CacheCell& cell : cells_) {
    VODCACHE_EXPECTS(cell.scorer() != nullptr);
    VODCACHE_EXPECTS(cell.peer_count() == viewers->peer_count());
  }
}

std::uint64_t ShadowBank::start_session(ProgramId program,
                                        DataSize program_size, sim::SimTime t) {
  std::uint64_t mask = 0;
  for (std::size_t p = 0; p < cells_.size(); ++p) {
    if (cells_[p].start_session(program, program_size, t, *coax_,
                                counters_[p])) {
      mask |= std::uint64_t{1} << p;
    }
  }
  return mask;
}

void ShadowBank::serve_segment(SegmentKey key, sim::Interval interval,
                               std::uint64_t admit_mask, bool full_slice) {
  for (std::size_t p = 0; p < cells_.size(); ++p) {
    cells_[p].serve_segment(key, interval, (admit_mask >> p) & 1, full_slice,
                            *viewers_, counters_[p]);
  }
}

void ShadowBank::fail_peer(PeerId peer) {
  for (CacheCell& cell : cells_) cell.fail_peer(peer);
}

}  // namespace vodcache::cache
