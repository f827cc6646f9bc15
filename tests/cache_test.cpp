// Unit tests for the cache layer: the cached-set index, all four
// replacement strategies from the paper, and the global popularity board.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cache/access_ledger.hpp"
#include "cache/future_index.hpp"
#include "cache/global_lfu.hpp"
#include "cache/lfu.hpp"
#include "cache/lru.hpp"
#include "cache/oracle.hpp"
#include "cache/popularity_board.hpp"
#include "cache/victim_index.hpp"
#include "sim/replay_clock.hpp"
#include "reference_popularity_board.hpp"
#include "scorer_support.hpp"
#include "util/rng.hpp"

namespace vodcache::cache {
namespace {

sim::SimTime at_min(std::int64_t minutes) { return sim::SimTime::minutes(minutes); }

// Catalog size of the scorer tests' ledgers.
constexpr std::size_t kPrograms = 64;

// ---------------------------------------------------------------- CachedSet

TEST(CachedSet, InsertEraseContains) {
  CachedSet set;
  EXPECT_TRUE(set.empty());
  set.insert(ProgramId{1}, {5, 0});
  EXPECT_TRUE(set.contains(ProgramId{1}));
  EXPECT_EQ(set.size(), 1u);
  set.erase(ProgramId{1});
  EXPECT_FALSE(set.contains(ProgramId{1}));
}

TEST(CachedSet, MinReturnsLowestScore) {
  CachedSet set;
  set.insert(ProgramId{1}, {5, 0});
  set.insert(ProgramId{2}, {3, 0});
  set.insert(ProgramId{3}, {9, 0});
  EXPECT_EQ(set.min(), ProgramId{2});
}

TEST(CachedSet, MinOfEmptyIsNullopt) {
  const CachedSet set;
  EXPECT_EQ(set.min(), std::nullopt);
}

TEST(CachedSet, UpdateRerANKS) {
  CachedSet set;
  set.insert(ProgramId{1}, {5, 0});
  set.insert(ProgramId{2}, {3, 0});
  set.update(ProgramId{2}, {10, 0});
  EXPECT_EQ(set.min(), ProgramId{1});
  // Downward updates re-rank too (LFU window expiry path).
  set.update(ProgramId{1}, {20, 0});
  set.update(ProgramId{2}, {1, 0});
  EXPECT_EQ(set.min(), ProgramId{2});
}

TEST(CachedSet, UpdateOfAbsentIsNoOp) {
  CachedSet set;
  set.update(ProgramId{9}, {1, 1});
  EXPECT_TRUE(set.empty());
}

TEST(CachedSet, TieBrokenBySecondComponent) {
  CachedSet set;
  set.insert(ProgramId{1}, {5, 10});  // same count, later recency
  set.insert(ProgramId{2}, {5, 3});   // earlier recency -> evict first
  EXPECT_EQ(set.min(), ProgramId{2});
}

TEST(CachedSet, ScoreOf) {
  CachedSet set;
  set.insert(ProgramId{4}, {7, 2});
  EXPECT_EQ(set.score_of(ProgramId{4}), (CachedSet::Score{7, 2}));
  EXPECT_EQ(set.score_of(ProgramId{5}), std::nullopt);
}

TEST(CachedSet, ProgramsListsAll) {
  CachedSet set;
  set.insert(ProgramId{1}, {1, 0});
  set.insert(ProgramId{2}, {2, 0});
  const auto programs = set.programs();
  EXPECT_EQ(programs.size(), 2u);
}

// --------------------------------------------------------------------- LRU

TEST(Lru, VictimIsLeastRecentlyUsed) {
  AccessLedger ledger(kPrograms, sim::SimTime{});
  LruStrategy lru(ledger);
  test::record(ledger, ProgramId{1}, at_min(1), lru);
  lru.on_admit(ProgramId{1}, at_min(1));
  test::record(ledger, ProgramId{2}, at_min(2), lru);
  lru.on_admit(ProgramId{2}, at_min(2));
  test::record(ledger, ProgramId{3}, at_min(3), lru);
  lru.on_admit(ProgramId{3}, at_min(3));
  EXPECT_EQ(lru.victim(at_min(4)), ProgramId{1});

  // Touch 1 -> victim moves to 2.
  test::record(ledger, ProgramId{1}, at_min(5), lru);
  EXPECT_EQ(lru.victim(at_min(6)), ProgramId{2});
}

TEST(Lru, CandidateAlwaysOutranksVictim) {
  // "If it is not in the cache already, it is added immediately."
  AccessLedger ledger(kPrograms, sim::SimTime{});
  LruStrategy lru(ledger);
  test::record(ledger, ProgramId{1}, at_min(1), lru);
  lru.on_admit(ProgramId{1}, at_min(1));
  test::record(ledger, ProgramId{9}, at_min(2), lru);  // the candidate
  EXPECT_GT(lru.score(ProgramId{9}, at_min(2)),
            lru.score(*lru.victim(at_min(2)), at_min(2)));
}

TEST(Lru, EvictRemovesFromCachedSet) {
  AccessLedger ledger(kPrograms, sim::SimTime{});
  LruStrategy lru(ledger);
  test::record(ledger, ProgramId{1}, at_min(1), lru);
  lru.on_admit(ProgramId{1}, at_min(1));
  lru.on_evict(ProgramId{1});
  EXPECT_FALSE(lru.is_cached(ProgramId{1}));
  EXPECT_EQ(lru.victim(at_min(2)), std::nullopt);
}

TEST(Lru, NeverAccessedScoresLowest) {
  AccessLedger ledger(kPrograms, sim::SimTime{});
  LruStrategy lru(ledger);
  test::record(ledger, ProgramId{1}, at_min(1), lru);
  EXPECT_LT(lru.score(ProgramId{42}, at_min(2)),
            lru.score(ProgramId{1}, at_min(2)));
}

TEST(Lru, ClassicReferenceSequence) {
  // Reference string 1,2,3,1,4 with capacity 3 (admissions driven manually
  // the way the index server would): 4 must evict 2.
  AccessLedger ledger(kPrograms, sim::SimTime{});
  LruStrategy lru(ledger);
  for (const auto& [p, t] :
       {std::pair{1, 1}, {2, 2}, {3, 3}, {1, 4}}) {
    test::record(ledger, ProgramId{static_cast<std::uint32_t>(p)}, at_min(t), lru);
    if (!lru.is_cached(ProgramId{static_cast<std::uint32_t>(p)})) {
      lru.on_admit(ProgramId{static_cast<std::uint32_t>(p)}, at_min(t));
    }
  }
  test::record(ledger, ProgramId{4}, at_min(5), lru);
  EXPECT_EQ(lru.victim(at_min(5)), ProgramId{2});
}

// --------------------------------------------------------------------- LFU

TEST(Lfu, VictimIsLeastFrequent) {
  AccessLedger ledger(kPrograms, sim::SimTime::hours(24));
  LfuStrategy lfu(ledger);
  for (int i = 0; i < 3; ++i) test::record(ledger, ProgramId{1}, at_min(i), lfu);
  lfu.on_admit(ProgramId{1}, at_min(3));
  test::record(ledger, ProgramId{2}, at_min(4), lfu);
  lfu.on_admit(ProgramId{2}, at_min(4));
  EXPECT_EQ(lfu.victim(at_min(5)), ProgramId{2});
}

TEST(Lfu, FrequencyCountsWindowOnly) {
  AccessLedger ledger(kPrograms, sim::SimTime::hours(1));
  LfuStrategy lfu(ledger);
  test::record(ledger, ProgramId{1}, at_min(0), lfu);
  test::record(ledger, ProgramId{1}, at_min(10), lfu);
  EXPECT_EQ(lfu.frequency(ProgramId{1}), 2);
  // Advance past the window: first event expires.
  test::record(ledger, ProgramId{2}, at_min(65), lfu);
  EXPECT_EQ(lfu.frequency(ProgramId{1}), 1);
  test::record(ledger, ProgramId{2}, at_min(75), lfu);
  EXPECT_EQ(lfu.frequency(ProgramId{1}), 0);
}

TEST(Lfu, ExpiryRerANKSCachedPrograms) {
  AccessLedger ledger(kPrograms, sim::SimTime::hours(1));
  LfuStrategy lfu(ledger);
  // Program 1: burst of 3 accesses at t=0; program 2: steady 2 accesses.
  for (int i = 0; i < 3; ++i) test::record(ledger, ProgramId{1}, at_min(0), lfu);
  lfu.on_admit(ProgramId{1}, at_min(0));
  test::record(ledger, ProgramId{2}, at_min(30), lfu);
  test::record(ledger, ProgramId{2}, at_min(55), lfu);
  lfu.on_admit(ProgramId{2}, at_min(55));
  EXPECT_EQ(lfu.victim(at_min(56)), ProgramId{2});
  // After t=60+30, program 1's burst has fully expired but program 2 keeps
  // one in-window access: victim flips to 1.
  test::record(ledger, ProgramId{3}, at_min(80), lfu);
  EXPECT_EQ(lfu.victim(at_min(80)), ProgramId{1});
}

TEST(Lfu, TiesResolveByRecency) {
  // "with ties being resolved using an LRU strategy"
  AccessLedger ledger(kPrograms, sim::SimTime::hours(24));
  LfuStrategy lfu(ledger);
  test::record(ledger, ProgramId{1}, at_min(1), lfu);
  lfu.on_admit(ProgramId{1}, at_min(1));
  test::record(ledger, ProgramId{2}, at_min(2), lfu);
  lfu.on_admit(ProgramId{2}, at_min(2));
  // Equal frequency (1 each); 1 is older -> victim.
  EXPECT_EQ(lfu.victim(at_min(3)), ProgramId{1});
}

TEST(Lfu, ZeroHistoryDegeneratesToLru) {
  AccessLedger ledger(kPrograms, sim::SimTime{});
  LfuStrategy lfu(ledger);
  for (int i = 0; i < 5; ++i) test::record(ledger, ProgramId{1}, at_min(i), lfu);
  lfu.on_admit(ProgramId{1}, at_min(5));
  test::record(ledger, ProgramId{2}, at_min(6), lfu);
  lfu.on_admit(ProgramId{2}, at_min(6));
  // Despite program 1's five accesses, frequency is always 0 with an empty
  // history; recency decides and 1 is older.
  EXPECT_EQ(lfu.frequency(ProgramId{1}), 0);
  EXPECT_EQ(lfu.victim(at_min(7)), ProgramId{1});
}

TEST(Lfu, CandidateComparisonUsesFrequency) {
  AccessLedger ledger(kPrograms, sim::SimTime::hours(24));
  LfuStrategy lfu(ledger);
  for (int i = 0; i < 5; ++i) test::record(ledger, ProgramId{1}, at_min(i), lfu);
  lfu.on_admit(ProgramId{1}, at_min(5));
  test::record(ledger, ProgramId{2}, at_min(6), lfu);
  // Candidate 2 accessed once: does NOT outrank cached program 1.
  EXPECT_LT(lfu.score(ProgramId{2}, at_min(6)),
            lfu.score(ProgramId{1}, at_min(6)));
}

// -------------------------------------------------------------- FutureIndex

TEST(FutureIndex, CountsWithinHorizon) {
  FutureIndex index(3);
  index.add(ProgramId{0}, at_min(10));
  index.add(ProgramId{0}, at_min(20));
  index.add(ProgramId{0}, at_min(500));
  index.add(ProgramId{1}, at_min(15));
  index.freeze();

  EXPECT_EQ(index.count_in(ProgramId{0}, at_min(0), sim::SimTime::minutes(30)),
            2);
  EXPECT_EQ(index.count_in(ProgramId{0}, at_min(0), sim::SimTime::hours(24)),
            3);
  EXPECT_EQ(index.count_in(ProgramId{2}, at_min(0), sim::SimTime::hours(24)),
            0);
}

TEST(FutureIndex, StrictlyAfterSemantics) {
  FutureIndex index(1);
  index.add(ProgramId{0}, at_min(10));
  index.freeze();
  // An access exactly at t is not "in the future".
  EXPECT_EQ(index.count_in(ProgramId{0}, at_min(10), sim::SimTime::hours(1)),
            0);
  // An access exactly at t + horizon is included.
  EXPECT_EQ(index.count_in(ProgramId{0}, at_min(9), sim::SimTime::minutes(1)),
            1);
}

TEST(FutureIndex, UnsortedInputIsSortedByFreeze) {
  FutureIndex index(1);
  index.add(ProgramId{0}, at_min(50));
  index.add(ProgramId{0}, at_min(10));
  index.add(ProgramId{0}, at_min(30));
  index.freeze();
  EXPECT_EQ(index.count_in(ProgramId{0}, at_min(0), sim::SimTime::minutes(35)),
            2);
}

// ------------------------------------------------------------------ Oracle

TEST(Oracle, VictimHasFewestFutureAccesses) {
  FutureIndex index(3);
  // Program 0: heavy future use; program 1: one use; program 2: none.
  for (int i = 0; i < 10; ++i) index.add(ProgramId{0}, at_min(100 + i));
  index.add(ProgramId{1}, at_min(100));
  index.freeze();

  AccessLedger ledger(kPrograms, sim::SimTime{});
  OracleStrategy oracle(index, ledger, sim::SimTime::days(3));
  for (std::uint32_t p = 0; p < 3; ++p) {
    test::record(ledger, ProgramId{p}, at_min(p), oracle);
    oracle.on_admit(ProgramId{p}, at_min(p));
  }
  EXPECT_EQ(oracle.victim(at_min(5)), ProgramId{2});
}

TEST(Oracle, ScoresDriftAsWindowSlides) {
  FutureIndex index(1);
  index.add(ProgramId{0}, at_min(100));
  index.freeze();
  AccessLedger ledger(kPrograms, sim::SimTime{});
  OracleStrategy oracle(index, ledger, sim::SimTime::hours(1));
  EXPECT_EQ(oracle.score(ProgramId{0}, at_min(50)).first, 1);
  // By t=101 the access is in the past: zero future value.
  EXPECT_EQ(oracle.score(ProgramId{0}, at_min(101)).first, 0);
}

TEST(Oracle, RefreshRerANKSAfterDrift) {
  FutureIndex index(2);
  // Program 0's future use is imminent then gone; program 1's is later.
  index.add(ProgramId{0}, at_min(10));
  index.add(ProgramId{1}, at_min(300));
  index.add(ProgramId{1}, at_min(310));
  index.freeze();

  AccessLedger ledger(kPrograms, sim::SimTime{});
  OracleStrategy oracle(index, ledger, sim::SimTime::hours(6),
                        /*refresh_interval=*/sim::SimTime::minutes(30));
  test::record(ledger, ProgramId{0}, at_min(0), oracle);
  oracle.on_admit(ProgramId{0}, at_min(0));
  test::record(ledger, ProgramId{1}, at_min(1), oracle);
  oracle.on_admit(ProgramId{1}, at_min(1));
  // Early: program 1 (2 future) outranks program 0 (1 future).
  EXPECT_EQ(oracle.victim(at_min(2)), ProgramId{0});
  // After program 0's sole future access passes, refresh flips nothing (0
  // still lowest), but by t=320 program 1's accesses also passed; then both
  // are zero and recency breaks the tie (0 accessed earlier).
  EXPECT_EQ(oracle.victim(at_min(400)), ProgramId{0});
}

// --------------------------------------------------------- PopularityBoard

TEST(PopularityBoard, LiveCountsWithNoLag) {
  test::PopularityBoard board(4, sim::SimTime::hours(1), sim::SimTime{});
  board.record(ProgramId{1}, at_min(0));
  board.record(ProgramId{1}, at_min(10));
  EXPECT_EQ(board.visible_count(ProgramId{1}, at_min(20)), 2);
  // First record expires at t=60.
  EXPECT_EQ(board.visible_count(ProgramId{1}, at_min(61)), 1);
}

TEST(PopularityBoard, LiveNotificationsFire) {
  test::PopularityBoard board(2, sim::SimTime::hours(1), sim::SimTime{});
  int notifications = 0;
  board.subscribe([&](ProgramId, sim::SimTime) { ++notifications; });
  board.record(ProgramId{0}, at_min(0));
  EXPECT_EQ(notifications, 1);
  // Expiry also notifies.
  board.advance(at_min(70));
  EXPECT_EQ(notifications, 2);
}

TEST(PopularityBoard, LaggedCountsFreezeAtBatch) {
  test::PopularityBoard board(2, sim::SimTime::hours(24),
                        /*lag=*/sim::SimTime::minutes(30));
  board.record(ProgramId{0}, at_min(5));
  // Before the first batch boundary, the snapshot is empty.
  EXPECT_EQ(board.visible_count(ProgramId{0}, at_min(10)), 0);
  // After the 30-minute boundary the access becomes visible.
  EXPECT_EQ(board.visible_count(ProgramId{0}, at_min(31)), 1);
  // An access at t=40 stays invisible until t=60.
  board.record(ProgramId{0}, at_min(40));
  EXPECT_EQ(board.visible_count(ProgramId{0}, at_min(45)), 1);
  EXPECT_EQ(board.visible_count(ProgramId{0}, at_min(61)), 2);
}

TEST(PopularityBoard, SnapshotEpochAdvances) {
  test::PopularityBoard board(1, sim::SimTime::hours(24),
                        sim::SimTime::minutes(30));
  EXPECT_EQ(board.snapshot_epoch(), 0u);
  board.advance(at_min(31));
  EXPECT_EQ(board.snapshot_epoch(), 1u);
  board.advance(at_min(95));
  EXPECT_EQ(board.snapshot_epoch(), 2u);
}

TEST(PopularityBoard, LaggedExpiryHonorsWindowAtBoundary) {
  test::PopularityBoard board(1, sim::SimTime::hours(1), sim::SimTime::minutes(30));
  board.record(ProgramId{0}, at_min(0));
  // At the t=90 boundary the access is 90 > 60 minutes old: expired.
  EXPECT_EQ(board.visible_count(ProgramId{0}, at_min(95)), 0);
  // At the t=30 boundary it was visible.
  test::PopularityBoard board2(1, sim::SimTime::hours(1), sim::SimTime::minutes(30));
  board2.record(ProgramId{0}, at_min(0));
  EXPECT_EQ(board2.visible_count(ProgramId{0}, at_min(35)), 1);
}

// ----------------------------------------------- ReplayBoard / ReplayCursor

std::shared_ptr<const ReplayBoard> frozen_board(
    std::size_t programs, sim::SimTime window, sim::SimTime lag,
    const std::vector<ReplayBoard::Access>& accesses) {
  auto board = std::make_shared<ReplayBoard>(programs, window, lag);
  for (const auto& access : accesses) board->add(access.program, access.time);
  board->freeze();
  return board;
}

TEST(ReplayCursor, LiveCountsWithNoLag) {
  const auto board = frozen_board(4, sim::SimTime::hours(1), sim::SimTime{},
                                  {{at_min(0), ProgramId{1}},
                                   {at_min(10), ProgramId{1}}});
  ReplayCursor cursor(*board);
  cursor.advance(at_min(20), 2);
  EXPECT_EQ(cursor.visible_count(ProgramId{1}), 2);
  // First access expires at t=60.
  cursor.advance(at_min(61), 2);
  EXPECT_EQ(cursor.visible_count(ProgramId{1}), 1);
}

TEST(ReplayCursor, VisibilityHonorsTracePosition) {
  // Both accesses are at t=0, but only the first is before the reader's
  // trace position — the cursor must not count records the serial engine
  // would not yet have replayed.
  const auto board = frozen_board(2, sim::SimTime::hours(1), sim::SimTime{},
                                  {{at_min(0), ProgramId{1}},
                                   {at_min(0), ProgramId{1}}});
  ReplayCursor cursor(*board);
  cursor.advance(at_min(0), 1);
  EXPECT_EQ(cursor.visible_count(ProgramId{1}), 1);
  cursor.advance(at_min(0), 2);
  EXPECT_EQ(cursor.visible_count(ProgramId{1}), 2);
}

TEST(ReplayCursor, ChangeCallbackFiresOnIngestAndExpiry) {
  const auto board = frozen_board(2, sim::SimTime::hours(1), sim::SimTime{},
                                  {{at_min(0), ProgramId{0}}});
  int changes = 0;
  ReplayCursor cursor(*board, [&](ProgramId) { ++changes; });
  cursor.advance(at_min(0), 1);
  EXPECT_EQ(changes, 1);
  // Expiry also fires.
  cursor.advance(at_min(70), 1);
  EXPECT_EQ(changes, 2);
}

TEST(ReplayCursor, LaggedCountsFreezeAtBatch) {
  const auto board = frozen_board(2, sim::SimTime::hours(24),
                                  /*lag=*/sim::SimTime::minutes(30),
                                  {{at_min(5), ProgramId{0}},
                                   {at_min(40), ProgramId{0}}});
  ReplayCursor cursor(*board);
  // Before the first batch boundary, the snapshot is empty.
  cursor.advance(at_min(10), 1);
  EXPECT_EQ(cursor.visible_count(ProgramId{0}), 0);
  // After the 30-minute boundary the first access becomes visible.
  cursor.advance(at_min(31), 1);
  EXPECT_EQ(cursor.visible_count(ProgramId{0}), 1);
  // The access at t=40 stays invisible until t=60.
  cursor.advance(at_min(45), 2);
  EXPECT_EQ(cursor.visible_count(ProgramId{0}), 1);
  cursor.advance(at_min(61), 2);
  EXPECT_EQ(cursor.visible_count(ProgramId{0}), 2);
}

TEST(ReplayCursor, SnapshotEpochAdvancesPerCrossing) {
  const auto board = frozen_board(1, sim::SimTime::hours(24),
                                  sim::SimTime::minutes(30), {});
  ReplayCursor cursor(*board);
  EXPECT_EQ(cursor.snapshot_epoch(), 0u);
  cursor.advance(at_min(31), 0);
  EXPECT_EQ(cursor.snapshot_epoch(), 1u);
  // Crossing two boundaries in one advance publishes once, like the live
  // board's lazy catch-up.
  cursor.advance(at_min(95), 0);
  EXPECT_EQ(cursor.snapshot_epoch(), 2u);
}

TEST(ReplayCursor, LaggedExpiryHonorsWindowAtBoundary) {
  const std::vector<ReplayBoard::Access> accesses{{at_min(0), ProgramId{0}}};
  {
    const auto board = frozen_board(1, sim::SimTime::hours(1),
                                    sim::SimTime::minutes(30), accesses);
    ReplayCursor cursor(*board);
    // At the t=90 boundary the access is 90 > 60 minutes old: expired.
    cursor.advance(at_min(95), 1);
    EXPECT_EQ(cursor.visible_count(ProgramId{0}), 0);
  }
  {
    const auto board = frozen_board(1, sim::SimTime::hours(1),
                                    sim::SimTime::minutes(30), accesses);
    ReplayCursor cursor(*board);
    // At the t=30 boundary it was visible.
    cursor.advance(at_min(35), 1);
    EXPECT_EQ(cursor.visible_count(ProgramId{0}), 1);
  }
}

// Cross-validation of the replay cursor against the live board: any
// non-decreasing access sequence, replayed through both, must show the
// same visible counts at every step, live and lagged alike.
TEST(ReplayCursor, MatchesLiveBoardOverRandomSequence) {
  Rng rng(2026);
  constexpr std::size_t kPrograms = 6;
  std::vector<ReplayBoard::Access> accesses;
  sim::SimTime t;
  for (int i = 0; i < 300; ++i) {
    t += sim::SimTime::seconds(static_cast<std::int64_t>(rng.uniform_u64(600)));
    accesses.push_back(
        {t, ProgramId{static_cast<std::uint32_t>(rng.uniform_u64(kPrograms))}});
  }

  for (const auto lag : {sim::SimTime{}, sim::SimTime::minutes(30)}) {
    test::PopularityBoard live(kPrograms, sim::SimTime::hours(2), lag);
    const auto replay = frozen_board(kPrograms, sim::SimTime::hours(2), lag,
                                     accesses);
    ReplayCursor cursor(*replay);
    for (std::size_t i = 0; i < accesses.size(); ++i) {
      live.record(accesses[i].program, accesses[i].time);
      cursor.advance(accesses[i].time, i + 1);
      for (std::uint32_t p = 0; p < kPrograms; ++p) {
        ASSERT_EQ(cursor.visible_count(ProgramId{p}),
                  live.visible_count(ProgramId{p}, accesses[i].time))
            << "program " << p << " after access " << i << " (lag "
            << lag.minutes_f() << "m)";
      }
    }
  }
}

// ------------------------------------------------------- GlobalLFU, replay

// One neighborhood's scorer stack outside a shard: its replay clock and
// access ledger, and the GlobalLFU scorers riding it.
struct GlobalNeighborhood {
  explicit GlobalNeighborhood(std::shared_ptr<const ReplayBoard> board)
      : ledger(board->program_count(), sim::SimTime{}, board, &clock) {}

  // The clock as the shard sets it for an event at `now`, after `position`
  // system-wide session starts.
  void at(sim::SimTime now, std::size_t position) {
    clock.now = now;
    clock.position = position;
  }

  sim::ReplayClock clock;
  AccessLedger ledger;
};

TEST(GlobalLfuReplay, SeesAccessesFromOtherNeighborhoods) {
  std::vector<ReplayBoard::Access> accesses;
  for (int i = 0; i < 5; ++i) accesses.push_back({at_min(i), ProgramId{1}});
  accesses.push_back({at_min(6), ProgramId{2}});
  const auto board =
      frozen_board(4, sim::SimTime::hours(24), sim::SimTime{}, accesses);

  GlobalNeighborhood na(board), nb(board);
  GlobalLfuStrategy a(na.ledger);
  GlobalLfuStrategy b(nb.ledger);

  // Neighborhood A sees lots of program 1; B has never seen it locally.
  for (std::size_t i = 0; i < 5; ++i) {
    na.at(at_min(static_cast<std::int64_t>(i)), i);
    test::record(na.ledger, ProgramId{1}, na.clock.now, a);
  }
  nb.at(at_min(6), 5);
  test::record(nb.ledger, ProgramId{2}, at_min(6), b);
  // B's scoring still ranks 1 above 2 thanks to global data.
  nb.at(at_min(7), 6);
  EXPECT_GT(b.score(ProgramId{1}, at_min(7)), b.score(ProgramId{2}, at_min(7)));
}

TEST(GlobalLfuReplay, ReranksRemoteCachedPrograms) {
  std::vector<ReplayBoard::Access> accesses{{at_min(0), ProgramId{1}},
                                            {at_min(1), ProgramId{2}},
                                            {at_min(1), ProgramId{2}}};
  for (int i = 0; i < 4; ++i) accesses.push_back({at_min(3), ProgramId{1}});
  const auto board =
      frozen_board(4, sim::SimTime::hours(24), sim::SimTime{}, accesses);

  GlobalNeighborhood na(board), nb(board);
  GlobalLfuStrategy a(na.ledger);
  GlobalLfuStrategy b(nb.ledger);

  nb.at(at_min(0), 0);
  test::record(nb.ledger, ProgramId{1}, at_min(0), b);
  b.on_admit(ProgramId{1}, at_min(0));
  nb.at(at_min(1), 1);
  test::record(nb.ledger, ProgramId{2}, at_min(1), b);
  nb.at(at_min(1), 2);
  test::record(nb.ledger, ProgramId{2}, at_min(1), b);
  b.on_admit(ProgramId{2}, at_min(1));
  nb.at(at_min(2), 3);
  EXPECT_EQ(b.victim(at_min(2)), ProgramId{1});

  // A's traffic boosts program 1 globally; B's victim flips to 2 without B
  // seeing any local access.
  for (std::size_t i = 0; i < 4; ++i) {
    na.at(at_min(3), 3 + i);
    test::record(na.ledger, ProgramId{1}, at_min(3), a);
  }
  nb.at(at_min(4), 7);
  EXPECT_EQ(b.victim(at_min(4)), ProgramId{2});
}

TEST(GlobalLfuReplay, LaggedModeAugmentsSnapshotWithLocal) {
  const auto board = frozen_board(4, sim::SimTime::hours(24),
                                  /*lag=*/sim::SimTime::minutes(30),
                                  {{at_min(1), ProgramId{1}},
                                   {at_min(2), ProgramId{1}},
                                   {at_min(3), ProgramId{2}}});

  GlobalNeighborhood na(board), nb(board);
  GlobalLfuStrategy a(na.ledger);
  GlobalLfuStrategy b(nb.ledger);

  // Before any batch: A's local accesses count for A but not for B.
  na.at(at_min(1), 0);
  test::record(na.ledger, ProgramId{1}, at_min(1), a);
  na.at(at_min(2), 1);
  test::record(na.ledger, ProgramId{1}, at_min(2), a);
  nb.at(at_min(3), 2);
  test::record(nb.ledger, ProgramId{2}, at_min(3), b);

  na.at(at_min(4), 3);
  nb.at(at_min(4), 3);
  EXPECT_EQ(a.score(ProgramId{1}, at_min(4)).first, 2);
  EXPECT_EQ(b.score(ProgramId{1}, at_min(4)).first, 0);
  EXPECT_EQ(b.score(ProgramId{2}, at_min(4)).first, 1);

  // After the batch, B sees A's traffic.
  nb.at(at_min(31), 3);
  EXPECT_EQ(b.score(ProgramId{1}, at_min(31)).first, 2);
}

TEST(GlobalLfuReplay, NameReflectsLag) {
  GlobalNeighborhood live(
      frozen_board(1, sim::SimTime::hours(1), sim::SimTime{}, {}));
  GlobalNeighborhood lagged(
      frozen_board(1, sim::SimTime::hours(1), sim::SimTime::minutes(30), {}));
  EXPECT_EQ(GlobalLfuStrategy(live.ledger).name(), "GlobalLFU");
  EXPECT_EQ(GlobalLfuStrategy(lagged.ledger).name(), "GlobalLFU(lagged)");
}

// ------------------------------------------- GlobalLFU, one shard's scorers
//
// The primary and every shadow cell of a shard read one ledger, hence one
// replay cursor: each must rank exactly as it would alone.

TEST(GlobalLfu, SeesAccessesFromOtherNeighborhoods) {
  std::vector<ReplayBoard::Access> accesses;
  for (int i = 0; i < 5; ++i) accesses.push_back({at_min(i), ProgramId{1}});
  accesses.push_back({at_min(6), ProgramId{2}});
  const auto board =
      frozen_board(4, sim::SimTime::hours(24), sim::SimTime{}, accesses);

  // A's accesses come only through the board; B carries two scorers.
  GlobalNeighborhood nb(board);
  GlobalLfuStrategy primary(nb.ledger);
  GlobalLfuStrategy cell(nb.ledger);
  nb.at(at_min(6), 5);
  test::record(nb.ledger, ProgramId{2}, at_min(6), primary, cell);
  nb.at(at_min(7), 6);
  for (GlobalLfuStrategy* scorer : {&primary, &cell}) {
    EXPECT_GT(scorer->score(ProgramId{1}, at_min(7)),
              scorer->score(ProgramId{2}, at_min(7)));
  }
}

TEST(GlobalLfu, LiveModeRerANKSRemoteCachedPrograms) {
  std::vector<ReplayBoard::Access> accesses{{at_min(0), ProgramId{1}},
                                            {at_min(1), ProgramId{2}},
                                            {at_min(1), ProgramId{2}}};
  for (int i = 0; i < 4; ++i) accesses.push_back({at_min(3), ProgramId{1}});
  const auto board =
      frozen_board(4, sim::SimTime::hours(24), sim::SimTime{}, accesses);

  // Two scorers of one shard with different cached sets: the cell caches
  // only program 1 and so never re-ranks 2.
  GlobalNeighborhood nb(board);
  GlobalLfuStrategy primary(nb.ledger);
  GlobalLfuStrategy cell(nb.ledger);
  nb.at(at_min(0), 0);
  test::record(nb.ledger, ProgramId{1}, at_min(0), primary, cell);
  primary.on_admit(ProgramId{1}, at_min(0));
  cell.on_admit(ProgramId{1}, at_min(0));
  nb.at(at_min(1), 1);
  test::record(nb.ledger, ProgramId{2}, at_min(1), primary, cell);
  nb.at(at_min(1), 2);
  test::record(nb.ledger, ProgramId{2}, at_min(1), primary, cell);
  primary.on_admit(ProgramId{2}, at_min(1));
  nb.at(at_min(2), 3);
  EXPECT_EQ(primary.victim(at_min(2)), ProgramId{1});
  EXPECT_EQ(cell.victim(at_min(2)), ProgramId{1});

  // Remote traffic boosts program 1; the primary's victim flips to 2
  // without a local access, whichever scorer advances the shared cursor.
  nb.at(at_min(4), 7);
  EXPECT_EQ(cell.victim(at_min(4)), ProgramId{1});
  EXPECT_EQ(cell.score(ProgramId{1}, at_min(4)).first, 5);
  EXPECT_EQ(primary.victim(at_min(4)), ProgramId{2});
}

TEST(GlobalLfu, LaggedModeAugmentsSnapshotWithLocal) {
  const auto board = frozen_board(4, sim::SimTime::hours(24),
                                  /*lag=*/sim::SimTime::minutes(30),
                                  {{at_min(1), ProgramId{1}},
                                   {at_min(2), ProgramId{1}},
                                   {at_min(3), ProgramId{2}}});

  // Both scorers of A's shard count A's local accesses before the batch,
  // and stop double-counting them once the batch folds them in.
  GlobalNeighborhood na(board);
  GlobalLfuStrategy primary(na.ledger);
  GlobalLfuStrategy cell(na.ledger);
  na.at(at_min(1), 0);
  test::record(na.ledger, ProgramId{1}, at_min(1), primary, cell);
  na.at(at_min(2), 1);
  test::record(na.ledger, ProgramId{1}, at_min(2), primary, cell);
  na.at(at_min(4), 3);
  EXPECT_EQ(primary.score(ProgramId{1}, at_min(4)).first, 2);
  EXPECT_EQ(cell.score(ProgramId{1}, at_min(4)).first, 2);
  EXPECT_EQ(cell.score(ProgramId{2}, at_min(4)).first, 0);

  na.at(at_min(31), 3);
  EXPECT_EQ(primary.score(ProgramId{1}, at_min(31)).first, 2);
  EXPECT_EQ(cell.score(ProgramId{1}, at_min(31)).first, 2);
  EXPECT_EQ(cell.score(ProgramId{2}, at_min(31)).first, 1);
}

TEST(GlobalLfu, NameReflectsLag) {
  GlobalNeighborhood lagged(
      frozen_board(1, sim::SimTime::hours(1), sim::SimTime::minutes(30), {}));
  GlobalLfuStrategy primary(lagged.ledger);
  GlobalLfuStrategy cell(lagged.ledger);
  EXPECT_EQ(primary.name(), "GlobalLFU(lagged)");
  EXPECT_EQ(cell.name(), "GlobalLFU(lagged)");
}

}  // namespace
}  // namespace vodcache::cache
