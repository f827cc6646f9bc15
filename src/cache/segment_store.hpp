// SegmentStore: physical contents of one neighborhood's cooperative cache.
//
// Programs are divided into 5-minute segments and distributed among the
// peers (paper section IV-B.1).  "Placement is not probabilistic.  Instead,
// the index server places data to balance load, and keeps track of where
// each program is located": each incoming segment goes to the peer with the
// most free contributed storage; eviction is whole-program and frees every
// peer's slice.
//
// Layout: everything the event loop touches lives in flat tables and pooled
// arrays (util/flat_map.hpp) —
//
//   segments_  : packed (program, index) key -> replica block handle.  A
//                segment's replica peers are one contiguous run in a pooled
//                arena, so locate() returns a span without allocating;
//                per-replica byte counts ride in a parallel arena block.
//   programs_  : program -> pooled list of its stored segment indexes
//                (whole-program eviction walks this instead of a per-replica
//                node list).
//   commitment_bits_ : program -> committed whole-program footprint.
//
// Evict and failure-wipe release blocks back onto the arenas' freelists, so
// steady-state churn stores and evicts without heap traffic.  Placement is
// a flat binary max-tree over (free bits, peer): each internal node holds
// the winning peer of its subtree, so the most-free peer is the root and a
// store, evict or wipe re-plays only the changed leaf's path.  Ties in free
// space go to the larger peer id.  A search that must skip the segment's
// existing replica holders descends only into subtrees whose winner is
// excluded — O(replicas x log peers), with no mutation.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "util/assert.hpp"
#include "util/flat_map.hpp"
#include "util/ids.hpp"
#include "util/units.hpp"

namespace vodcache::cache {

struct SegmentKey {
  ProgramId program;
  std::uint32_t index = 0;

  friend bool operator==(SegmentKey, SegmentKey) = default;
};

struct SegmentKeyHash {
  std::size_t operator()(SegmentKey key) const noexcept {
    const std::uint64_t mixed =
        (static_cast<std::uint64_t>(key.program.value()) << 32) | key.index;
    return std::hash<std::uint64_t>{}(mixed);
  }
};

class SegmentStore {
 public:
  // One entry per peer: its contributed storage.
  explicit SegmentStore(std::vector<DataSize> peer_contributions);

  [[nodiscard]] bool contains(SegmentKey key) const;
  // All peers holding a replica of the segment (possibly empty), in the
  // order the replicas were stored.  The span points into the replica
  // arena: valid until the next store/evict/wipe.
  [[nodiscard]] std::span<const PeerId> locate(SegmentKey key) const;

  // True if any segment of the program is stored.
  [[nodiscard]] bool has_program(ProgramId program) const;

  // Stores a replica on the peer with most free space that does not already
  // hold one.  Returns the chosen peer, or nullopt — with the store
  // unchanged — if no eligible peer can hold `bytes` (the caller evicts and
  // retries).  Placement is per-peer: aggregate free space can exceed
  // `bytes` while no single peer fits it (fragmentation).  Replicas of hot
  // segments arise when every existing copy's peer is stream-saturated: the
  // index server tells one more peer to read the (anyway happening) miss
  // broadcast off the wire.
  std::optional<PeerId> store(SegmentKey key, DataSize bytes);

  // Whole-program admission accounting (paper section IV-B.1: the index
  // server admits and deletes *programs*; segments then materialize from
  // broadcasts).  A commitment charges the program's full size against
  // capacity regardless of how many segments are stored yet.
  void commit_program(ProgramId program, DataSize full_size);
  [[nodiscard]] bool has_commitment(ProgramId program) const;
  [[nodiscard]] DataSize committed_total() const { return committed_total_; }
  [[nodiscard]] std::size_t committed_program_count() const {
    return commitment_bits_.size();
  }

  // Removes every segment of `program`; returns bytes freed.
  DataSize evict_program(ProgramId program);

  // Failure injection: drop every replica stored on `peer` (disk loss /
  // box swap).  Whole-program commitments are left in place — the index
  // server still considers those programs admitted and will re-fill them
  // from future miss broadcasts.  Returns the programs that lost their
  // *last* stored segment (callers running segment-granularity admission
  // need to un-track those) and the bytes freed.  Programs are visited —
  // and emptied programs reported — in ascending id order.
  struct WipeResult {
    DataSize freed;
    std::vector<ProgramId> emptied_programs;
  };
  WipeResult wipe_peer(PeerId peer);

  [[nodiscard]] DataSize used() const { return used_; }
  [[nodiscard]] DataSize capacity() const { return capacity_; }
  [[nodiscard]] DataSize free_space() const { return capacity_ - used_; }
  [[nodiscard]] DataSize peer_used(PeerId peer) const;
  [[nodiscard]] DataSize peer_contribution(PeerId peer) const;
  [[nodiscard]] std::size_t peer_count() const { return contribution_.size(); }

  // Distinct segment keys stored (replicas count once).
  [[nodiscard]] std::size_t stored_segment_count() const {
    return segments_.size();
  }
  [[nodiscard]] std::size_t replica_count(SegmentKey key) const;
  [[nodiscard]] std::size_t stored_program_count() const {
    return programs_.size();
  }
  [[nodiscard]] DataSize program_bytes(ProgramId program) const;
  // Programs with at least one stored segment, ascending by id.
  [[nodiscard]] std::vector<ProgramId> stored_programs() const;

 private:
  // Replica block of one stored segment: `count` peers at replica arena
  // offset `off`, with the per-replica byte counts at the same offset in
  // the parallel bytes arena; both blocks hold 2^cap_log2 slots.
  struct SegmentEntry {
    std::uint32_t off = 0;
    std::uint16_t count = 0;
    std::uint8_t cap_log2 = 0;
  };
  // Pooled list of a program's stored segment indexes.
  struct ProgramEntry {
    std::uint32_t off = 0;
    std::uint32_t count = 0;
    std::uint8_t cap_log2 = 0;
  };

  [[nodiscard]] static std::uint64_t pack(SegmentKey key) {
    return (static_cast<std::uint64_t>(key.program.value()) << 32) |
           key.index;
  }

  [[nodiscard]] std::optional<PeerId> best_peer(
      DataSize bytes, std::span<const PeerId> exclude) const;
  // The better of two tree entries: more free space, then the larger id;
  // kNoPeer (padding) loses to every peer.
  [[nodiscard]] std::uint32_t better(std::uint32_t a, std::uint32_t b) const;
  // Winner of node `node`'s subtree among peers not in `exclude`.
  [[nodiscard]] std::uint32_t best_excluding(
      std::size_t node, std::span<const PeerId> exclude) const;
  // Adjusts `peer`'s free space by `delta` bits and re-plays its path.
  void add_free(std::uint32_t peer, std::int64_t delta);
  // Drops replica `r` of the segment at `packed`, adjusting global (but not
  // per-peer) accounting; erases the segment when it was the last replica.
  // Returns the replica's bytes.
  DataSize drop_replica(std::uint64_t packed, SegmentEntry& entry,
                        std::uint16_t r);

  std::vector<DataSize> contribution_;
  std::vector<std::int64_t> free_bits_;
  DataSize capacity_;
  DataSize used_;

  util::FlatMap64<SegmentEntry> segments_;
  util::FlatMap64<ProgramEntry> programs_;
  util::FlatMap64<std::int64_t> commitment_bits_;
  DataSize committed_total_;

  util::PooledArena<PeerId> replica_peers_;
  util::PooledArena<std::int64_t> replica_bytes_;
  util::PooledArena<std::uint32_t> segment_lists_;

  // Placement max-tree: node k's children are 2k and 2k+1, leaves start
  // at tree_leaves_ (a power of two) and leaf tree_leaves_ + p is peer p;
  // padding leaves hold kNoPeer.  Node 0 is unused.
  static constexpr std::uint32_t kNoPeer = 0xffffffffu;
  std::size_t tree_leaves_ = 1;
  std::vector<std::uint32_t> tree_;
  std::vector<std::uint32_t> wipe_programs_;    // wipe_peer scratch
};

}  // namespace vodcache::cache
