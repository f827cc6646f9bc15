// The placement search SegmentStore ran before its max-tree: a lazy
// max-heap of (free bits, peer) entries, revalidated on pop and compacted
// at a bounded size.  Kept here as the spec the tree must reproduce, the
// way reference_sim.hpp keeps the engine's semantics: given the same
// per-peer free space and the same excluded replica holders, both must
// choose the same peer — the one with most free space, ties to the larger
// id — or agree that none fits.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "util/ids.hpp"

namespace vodcache::test {

class LazyFreeHeap {
 public:
  explicit LazyFreeHeap(std::vector<std::int64_t> free_bits)
      : free_(std::move(free_bits)),
        bound_(std::max<std::size_t>(64, free_.size() * 4)) {
    for (std::uint32_t peer = 0; peer < free_.size(); ++peer) push(peer);
  }

  // `peer`'s free space changed (a store, an evicted replica, a wipe).
  void set_free(std::uint32_t peer, std::int64_t free_bits) {
    free_[peer] = free_bits;
    push(peer);
  }

  // The peer a store of `bits` would go to, skipping `exclude`.
  [[nodiscard]] std::optional<PeerId> best_peer(
      std::int64_t bits, std::span<const PeerId> exclude) {
    // Valid-but-excluded entries are parked and re-pushed afterwards so the
    // heap keeps its "true maximum always present" invariant.
    std::vector<Entry> parked;
    std::optional<PeerId> chosen;
    while (!heap_.empty()) {
      const auto [claimed, peer] = heap_.front();
      if (claimed != free_[peer]) {
        // Stale entry; a fresh one was pushed when the peer last changed.
        std::pop_heap(heap_.begin(), heap_.end());
        heap_.pop_back();
        continue;
      }
      if (claimed < bits) break;  // max free can't fit
      if (std::find(exclude.begin(), exclude.end(), PeerId{peer}) !=
          exclude.end()) {
        parked.push_back(heap_.front());
        std::pop_heap(heap_.begin(), heap_.end());
        heap_.pop_back();
        continue;
      }
      chosen = PeerId{peer};
      break;
    }
    for (const auto& entry : parked) {
      heap_.push_back(entry);
      std::push_heap(heap_.begin(), heap_.end());
    }
    return chosen;
  }

 private:
  using Entry = std::pair<std::int64_t, std::uint32_t>;

  void push(std::uint32_t peer) {
    if (heap_.size() >= bound_) {
      // Compact to exactly one fresh entry per peer.
      heap_.clear();
      for (std::uint32_t p = 0; p < free_.size(); ++p) {
        heap_.emplace_back(free_[p], p);
      }
      std::make_heap(heap_.begin(), heap_.end());
    }
    heap_.emplace_back(free_[peer], peer);
    std::push_heap(heap_.begin(), heap_.end());
  }

  std::vector<std::int64_t> free_;
  std::size_t bound_;
  std::vector<Entry> heap_;
};

}  // namespace vodcache::test
