#include "cache/segment_store.hpp"

#include <algorithm>

namespace vodcache::cache {

SegmentStore::SegmentStore(std::vector<DataSize> peer_contributions)
    : contribution_(std::move(peer_contributions)) {
  VODCACHE_EXPECTS(!contribution_.empty());
  free_bits_.reserve(contribution_.size());
  for (const DataSize contribution : contribution_) {
    VODCACHE_EXPECTS(contribution >= DataSize{});
    capacity_ += contribution;
    free_bits_.push_back(contribution.bit_count());
  }
  while (tree_leaves_ < contribution_.size()) tree_leaves_ *= 2;
  tree_.assign(2 * tree_leaves_, kNoPeer);
  for (std::size_t peer = 0; peer < contribution_.size(); ++peer) {
    tree_[tree_leaves_ + peer] = static_cast<std::uint32_t>(peer);
  }
  for (std::size_t node = tree_leaves_ - 1; node >= 1; --node) {
    tree_[node] = better(tree_[2 * node], tree_[2 * node + 1]);
  }
}

std::uint32_t SegmentStore::better(std::uint32_t a, std::uint32_t b) const {
  if (a == kNoPeer) return b;
  if (b == kNoPeer) return a;
  if (free_bits_[a] != free_bits_[b]) {
    return free_bits_[a] > free_bits_[b] ? a : b;
  }
  return a > b ? a : b;
}

void SegmentStore::add_free(std::uint32_t peer, std::int64_t delta) {
  free_bits_[peer] += delta;
  for (std::size_t node = (tree_leaves_ + peer) / 2; node >= 1; node /= 2) {
    tree_[node] = better(tree_[2 * node], tree_[2 * node + 1]);
  }
}

std::uint32_t SegmentStore::best_excluding(
    std::size_t node, std::span<const PeerId> exclude) const {
  const std::uint32_t winner = tree_[node];
  if (winner == kNoPeer ||
      std::find(exclude.begin(), exclude.end(), PeerId{winner}) ==
          exclude.end()) {
    return winner;
  }
  if (node >= tree_leaves_) return kNoPeer;  // the excluded leaf itself
  return better(best_excluding(2 * node, exclude),
                best_excluding(2 * node + 1, exclude));
}

std::optional<PeerId> SegmentStore::best_peer(
    DataSize bytes, std::span<const PeerId> exclude) const {
  const std::uint32_t peer = best_excluding(1, exclude);
  if (peer == kNoPeer || free_bits_[peer] < bytes.bit_count()) {
    return std::nullopt;
  }
  return PeerId{peer};
}

bool SegmentStore::contains(SegmentKey key) const {
  return segments_.contains(pack(key));
}

std::span<const PeerId> SegmentStore::locate(SegmentKey key) const {
  const SegmentEntry* entry = segments_.find(pack(key));
  if (entry == nullptr) return {};
  return {replica_peers_.data(entry->off), entry->count};
}

bool SegmentStore::has_program(ProgramId program) const {
  return programs_.contains(program.value());
}

std::optional<PeerId> SegmentStore::store(SegmentKey key, DataSize bytes) {
  VODCACHE_EXPECTS(bytes > DataSize{});
  const std::uint64_t packed = pack(key);
  SegmentEntry* entry = segments_.find(packed);
  const std::span<const PeerId> exclude =
      entry != nullptr
          ? std::span<const PeerId>{replica_peers_.data(entry->off),
                                    entry->count}
          : std::span<const PeerId>{};
  const auto peer = best_peer(bytes, exclude);
  if (!peer) return std::nullopt;

  add_free(peer->value(), -bytes.bit_count());
  used_ += bytes;

  if (entry == nullptr) {
    SegmentEntry fresh;
    fresh.cap_log2 = 0;
    fresh.off = replica_peers_.allocate(0);
    // The bytes arena mirrors the peers arena class for class, so the two
    // blocks always share one offset.
    const std::uint32_t bytes_off = replica_bytes_.allocate(0);
    VODCACHE_ASSERT(bytes_off == fresh.off);
    entry = &segments_.insert(packed, fresh);

    // First replica of this (program, index): register the segment index
    // under its program.
    ProgramEntry* prog = programs_.find(key.program.value());
    if (prog == nullptr) {
      ProgramEntry fresh_prog;
      fresh_prog.cap_log2 = 2;
      fresh_prog.off = segment_lists_.allocate(fresh_prog.cap_log2);
      prog = &programs_.insert(key.program.value(), fresh_prog);
    }
    if (prog->count == (1u << prog->cap_log2)) {
      prog->off = segment_lists_.grow(prog->off, prog->cap_log2, prog->count);
      ++prog->cap_log2;
    }
    segment_lists_.data(prog->off)[prog->count++] = key.index;
  } else if (entry->count == (1u << entry->cap_log2)) {
    const std::uint32_t old_off = entry->off;
    entry->off = replica_peers_.grow(old_off, entry->cap_log2, entry->count);
    const std::uint32_t bytes_off =
        replica_bytes_.grow(old_off, entry->cap_log2, entry->count);
    VODCACHE_ASSERT(bytes_off == entry->off);
    ++entry->cap_log2;
  }
  replica_peers_.data(entry->off)[entry->count] = *peer;
  replica_bytes_.data(entry->off)[entry->count] = bytes.bit_count();
  ++entry->count;
  return peer;
}

DataSize SegmentStore::evict_program(ProgramId program) {
  // Release the whole-program commitment (if any) even when no segment has
  // materialized yet.
  if (const std::int64_t* bits = commitment_bits_.find(program.value())) {
    committed_total_ -= DataSize::bits(*bits);
    commitment_bits_.erase(program.value());
  }
  ProgramEntry* prog = programs_.find(program.value());
  if (prog == nullptr) return DataSize{};
  DataSize freed;
  const std::uint32_t* indexes = segment_lists_.data(prog->off);
  for (std::uint32_t i = 0; i < prog->count; ++i) {
    const std::uint64_t packed = pack({program, indexes[i]});
    SegmentEntry* entry = segments_.find(packed);
    VODCACHE_ASSERT(entry != nullptr);
    const PeerId* peers = replica_peers_.data(entry->off);
    const std::int64_t* bytes = replica_bytes_.data(entry->off);
    for (std::uint16_t r = 0; r < entry->count; ++r) {
      add_free(peers[r].value(), bytes[r]);
      const DataSize replica = DataSize::bits(bytes[r]);
      used_ -= replica;
      freed += replica;
    }
    replica_peers_.release(entry->off, entry->cap_log2);
    replica_bytes_.release(entry->off, entry->cap_log2);
    segments_.erase(packed);
  }
  segment_lists_.release(prog->off, prog->cap_log2);
  programs_.erase(program.value());
  VODCACHE_ENSURES(used_ >= DataSize{});
  return freed;
}

SegmentStore::WipeResult SegmentStore::wipe_peer(PeerId peer) {
  VODCACHE_EXPECTS(peer.value() < contribution_.size());
  WipeResult result;
  // Flat-table slot order depends on insert/erase history; visiting
  // programs in ascending id order keeps the wipe — and the emptied-program
  // report driving segment-admission untracking — a pure function of the
  // stored contents.
  wipe_programs_.clear();
  programs_.for_each([this](std::uint64_t key, const ProgramEntry&) {
    wipe_programs_.push_back(static_cast<std::uint32_t>(key));
  });
  std::sort(wipe_programs_.begin(), wipe_programs_.end());

  for (const std::uint32_t program : wipe_programs_) {
    ProgramEntry* prog = programs_.find(program);
    std::uint32_t* indexes = segment_lists_.data(prog->off);
    for (std::uint32_t i = 0; i < prog->count;) {
      const std::uint64_t packed = pack({ProgramId{program}, indexes[i]});
      SegmentEntry* entry = segments_.find(packed);
      VODCACHE_ASSERT(entry != nullptr);
      PeerId* peers = replica_peers_.data(entry->off);
      std::uint16_t r = 0;
      while (r < entry->count && peers[r] != peer) ++r;
      if (r == entry->count) {
        ++i;
        continue;  // this replica set survives the wipe
      }
      // drop_replica erases the segment (invalidating `entry`) when this is
      // the last replica — decide before calling.
      const bool emptied = entry->count == 1;
      result.freed += drop_replica(packed, *entry, r);
      if (emptied) {
        // Last replica gone: the segment itself is gone; drop its index
        // from the program's list (order preserved for determinism).
        for (std::uint32_t j = i + 1; j < prog->count; ++j) {
          indexes[j - 1] = indexes[j];
        }
        --prog->count;
      } else {
        ++i;
      }
    }
    if (prog->count == 0) {
      result.emptied_programs.push_back(ProgramId{program});
      segment_lists_.release(prog->off, prog->cap_log2);
      programs_.erase(program);
    }
  }

  add_free(peer.value(), result.freed.bit_count());
  used_ -= result.freed;
  VODCACHE_ENSURES(free_bits_[peer.value()] <=
                   contribution_[peer.value()].bit_count());
  return result;
}

DataSize SegmentStore::drop_replica(std::uint64_t packed, SegmentEntry& entry,
                                    std::uint16_t r) {
  PeerId* peers = replica_peers_.data(entry.off);
  std::int64_t* bytes = replica_bytes_.data(entry.off);
  const DataSize dropped = DataSize::bits(bytes[r]);
  for (std::uint16_t j = r + 1; j < entry.count; ++j) {
    peers[j - 1] = peers[j];
    bytes[j - 1] = bytes[j];
  }
  --entry.count;
  if (entry.count == 0) {
    replica_peers_.release(entry.off, entry.cap_log2);
    replica_bytes_.release(entry.off, entry.cap_log2);
    segments_.erase(packed);
  }
  return dropped;
}

void SegmentStore::commit_program(ProgramId program, DataSize full_size) {
  VODCACHE_EXPECTS(full_size > DataSize{});
  VODCACHE_EXPECTS(!has_commitment(program));
  commitment_bits_.insert(program.value(), full_size.bit_count());
  committed_total_ += full_size;
}

bool SegmentStore::has_commitment(ProgramId program) const {
  return commitment_bits_.contains(program.value());
}

std::size_t SegmentStore::replica_count(SegmentKey key) const {
  const SegmentEntry* entry = segments_.find(pack(key));
  return entry == nullptr ? 0 : entry->count;
}

DataSize SegmentStore::peer_used(PeerId peer) const {
  VODCACHE_EXPECTS(peer.value() < contribution_.size());
  return contribution_[peer.value()] -
         DataSize::bits(free_bits_[peer.value()]);
}

DataSize SegmentStore::peer_contribution(PeerId peer) const {
  VODCACHE_EXPECTS(peer.value() < contribution_.size());
  return contribution_[peer.value()];
}

DataSize SegmentStore::program_bytes(ProgramId program) const {
  const ProgramEntry* prog = programs_.find(program.value());
  if (prog == nullptr) return DataSize{};
  DataSize total;
  const std::uint32_t* indexes = segment_lists_.data(prog->off);
  for (std::uint32_t i = 0; i < prog->count; ++i) {
    const SegmentEntry* entry =
        segments_.find(pack({program, indexes[i]}));
    VODCACHE_ASSERT(entry != nullptr);
    const std::int64_t* bytes = replica_bytes_.data(entry->off);
    for (std::uint16_t r = 0; r < entry->count; ++r) {
      total += DataSize::bits(bytes[r]);
    }
  }
  return total;
}

std::vector<ProgramId> SegmentStore::stored_programs() const {
  std::vector<ProgramId> out;
  out.reserve(programs_.size());
  programs_.for_each([&out](std::uint64_t key, const ProgramEntry&) {
    out.push_back(ProgramId{static_cast<std::uint32_t>(key)});
  });
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace vodcache::cache
