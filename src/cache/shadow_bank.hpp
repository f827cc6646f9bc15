// ShadowBank: one neighborhood's shadow caches — one cache::CacheCell per
// registered (eviction scorer x admission policy) pair, replayed against
// the same session stream the primary policy is replaying, in the same
// single pass.
//
// A shadow cell is the same type the primary runs (cache/cache_cell.hpp),
// so a shadow's hit/miss/denial counters equal a standalone run of its
// pair by construction of the code, not by keeping two copies in step.
// What the cells share is read from state the shard keeps once for all
// sides, because it is the same under every policy:
//
//  * the access ledger (cache/access_ledger.hpp) — recency, counts, and the
//    global replay cursor, written once per session start;
//  * viewer playback occupancy (hfc::ViewerOccupancy, the primary's);
//  * the primary's coax meter, for the headroom-gated admissions.
//
// Sharing is exact because each shared structure is a pure function of the
// session stream, which every side sees identically, and because each cell
// reads it at the same points of that stream a standalone run would.  A
// cell moves no bytes, feeds no rate meter, walks no tier tree, and never
// writes the primary's state — so with shadows on, the primary's event
// sequence is the no-shadow sequence, and its report stays byte-identical
// (pinned in tests/shadow_bank_test.cpp, which also pins every cell's
// counters equal to a standalone run of its pair).
//
// The shard calls start_session -> serve_segment per boundary, and
// fail_peer per failure draw, right after the primary's counterpart, so
// each cell sees the standalone event order.  The bank itself is the
// loops over its cells: the session-start loop builds the admit bitmask the
// shard keeps per session slot, and the serve loop reads it back.
//
// Zero steady-state allocations: stores are FlatMap64/PooledArena, serve
// slots are one flat array per cell, admission histories are flat tables
// or fixed sketch arrays (enforced by tests/allocation_audit_test.cpp with
// shadows on).
#pragma once

#include <cstdint>
#include <vector>

#include "cache/cache_cell.hpp"
#include "hfc/settop.hpp"
#include "sim/rate_meter.hpp"
#include "sim/time.hpp"
#include "util/ids.hpp"
#include "util/units.hpp"

namespace vodcache::cache {

class ShadowBank {
 public:
  // Admit bitmasks cap the matrix at 64 pairs per bank.
  static constexpr std::size_t kMaxPairs = 64;

  // Every cell must have a scorer (a no-cache shadow would count nothing).
  // `coax` (the owning neighborhood's coax meter, fed by the primary) and
  // `viewers` (its viewer playback record) must outlive the bank.
  ShadowBank(std::vector<CacheCell> cells, const sim::RateMeter* coax,
             const hfc::ViewerOccupancy* viewers);

  ShadowBank(const ShadowBank&) = delete;
  ShadowBank& operator=(const ShadowBank&) = delete;

  [[nodiscard]] std::size_t pair_count() const { return cells_.size(); }
  [[nodiscard]] const char* scorer_name(std::size_t pair) const {
    return cells_[pair].scorer_name();
  }
  [[nodiscard]] const char* admission_name(std::size_t pair) const {
    return cells_[pair].admission_name();
  }
  [[nodiscard]] const CellCounters& counters(std::size_t pair) const {
    return counters_[pair];
  }
  // Live policy switching swaps a cell with the primary's; the counters at
  // `pair` stay put.
  [[nodiscard]] CacheCell& cell(std::size_t pair) { return cells_[pair]; }

  // Bit p of the result is pair p's whole-session admit decision.
  [[nodiscard]] std::uint64_t start_session(ProgramId program,
                                            DataSize program_size,
                                            sim::SimTime t);

  // Bit p of `admit_mask` is pair p's decision from start_session.
  void serve_segment(SegmentKey key, sim::Interval interval,
                     std::uint64_t admit_mask, bool full_slice);

  void fail_peer(PeerId peer);

 private:
  const sim::RateMeter* coax_;
  const hfc::ViewerOccupancy* viewers_;
  std::vector<CacheCell> cells_;
  std::vector<CellCounters> counters_;
};

}  // namespace vodcache::cache
