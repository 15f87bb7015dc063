#include "core/lock_rank.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/mutex.h"

namespace valentine {
namespace {

// The default violation handler aborts; every test in this file runs
// under a recording handler instead, restored on teardown so the
// process-wide default is back in place for unrelated tests.
std::vector<LockRankViolation>* g_recorded = nullptr;

void RecordViolation(const LockRankViolation& violation) {
  g_recorded->push_back(violation);
}

class LockRankTest : public ::testing::Test {
 protected:
  void SetUp() override {
    g_recorded = &recorded_;
    previous_ = SetLockRankViolationHandler(&RecordViolation);
    // Tests drive the tracker directly; start from a clean thread.
    ASSERT_EQ(LockRankTracker::HeldCount(), 0u);
  }

  void TearDown() override {
    SetLockRankViolationHandler(previous_);
    g_recorded = nullptr;
    EXPECT_EQ(LockRankTracker::HeldCount(), 0u)
        << "a test leaked a held-mutex entry";
  }

  std::vector<LockRankViolation> recorded_;
  LockRankViolationHandler previous_ = nullptr;
};

// --- Tracker-level behaviour: exercised in every build type, because
// --- the tracker itself is always compiled.

TEST_F(LockRankTest, InOrderAcquisitionIsClean) {
  int journal = 0, cache = 0, metrics = 0;
  LockRankTracker::CheckAcquire(&journal, LockRank::kJournal, "journal");
  LockRankTracker::Acquired(&journal, LockRank::kJournal, "journal");
  LockRankTracker::CheckAcquire(&cache, LockRank::kArtifactCache, "cache");
  LockRankTracker::Acquired(&cache, LockRank::kArtifactCache, "cache");
  LockRankTracker::CheckAcquire(&metrics, LockRank::kMetrics, "metrics");
  LockRankTracker::Acquired(&metrics, LockRank::kMetrics, "metrics");
  EXPECT_EQ(LockRankTracker::HeldCount(), 3u);
  LockRankTracker::Released(&metrics);
  LockRankTracker::Released(&cache);
  LockRankTracker::Released(&journal);
  EXPECT_TRUE(recorded_.empty());
}

TEST_F(LockRankTest, RankInversionIsReportedAtTheAcquiringCall) {
  int metrics = 0, journal = 0;
  LockRankTracker::Acquired(&metrics, LockRank::kMetrics, "metrics");
  LockRankTracker::CheckAcquire(&journal, LockRank::kJournal, "journal");
  ASSERT_EQ(recorded_.size(), 1u);
  EXPECT_EQ(recorded_[0].kind, LockRankViolation::Kind::kRankInversion);
  EXPECT_EQ(recorded_[0].acquiring, &journal);
  EXPECT_EQ(recorded_[0].acquiring_rank, LockRank::kJournal);
  EXPECT_STREQ(recorded_[0].acquiring_name, "journal");
  EXPECT_EQ(recorded_[0].held, &metrics);
  EXPECT_EQ(recorded_[0].held_rank, LockRank::kMetrics);
  EXPECT_STREQ(recorded_[0].held_name, "metrics");
  LockRankTracker::Released(&metrics);
}

TEST_F(LockRankTest, EqualRankCountsAsInversion) {
  // Two mutexes of the same subsystem must never nest: if thread A does
  // X-then-Y and thread B does Y-then-X, ranks alone cannot break the
  // tie, so "strictly increasing" is the invariant.
  int a = 0, b = 0;
  LockRankTracker::Acquired(&a, LockRank::kArtifactCache, "cache-a");
  LockRankTracker::CheckAcquire(&b, LockRank::kArtifactCache, "cache-b");
  ASSERT_EQ(recorded_.size(), 1u);
  EXPECT_EQ(recorded_[0].kind, LockRankViolation::Kind::kRankInversion);
  LockRankTracker::Released(&a);
}

TEST_F(LockRankTest, SelfDeadlockIsReportedRegardlessOfRank) {
  int mu = 0;
  LockRankTracker::Acquired(&mu, LockRank::kUnranked, "unranked");
  LockRankTracker::CheckAcquire(&mu, LockRank::kUnranked, "unranked");
  ASSERT_EQ(recorded_.size(), 1u);
  EXPECT_EQ(recorded_[0].kind, LockRankViolation::Kind::kSelfDeadlock);
  EXPECT_EQ(recorded_[0].acquiring, &mu);
  EXPECT_EQ(recorded_[0].held, &mu);
  LockRankTracker::Released(&mu);
}

TEST_F(LockRankTest, SelfDeadlockSuppressesTheRankScan) {
  // One bug, one report: the re-entry is the diagnosis; a trailing
  // "rank inversion against yourself" would be noise.
  int mu = 0;
  LockRankTracker::Acquired(&mu, LockRank::kMetrics, "metrics");
  LockRankTracker::CheckAcquire(&mu, LockRank::kMetrics, "metrics");
  ASSERT_EQ(recorded_.size(), 1u);
  EXPECT_EQ(recorded_[0].kind, LockRankViolation::Kind::kSelfDeadlock);
  LockRankTracker::Released(&mu);
}

TEST_F(LockRankTest, UnrankedAcquisitionSkipsOrderingChecks) {
  int metrics = 0, unranked = 0;
  LockRankTracker::Acquired(&metrics, LockRank::kMetrics, "metrics");
  LockRankTracker::CheckAcquire(&unranked, LockRank::kUnranked, "unranked");
  EXPECT_TRUE(recorded_.empty());
  LockRankTracker::Released(&metrics);
}

TEST_F(LockRankTest, OutOfOrderReleaseIsTolerated) {
  int a = 0, b = 0, stranger = 0;
  LockRankTracker::Acquired(&a, LockRank::kJournal, "a");
  LockRankTracker::Acquired(&b, LockRank::kMetrics, "b");
  LockRankTracker::Released(&a);  // not LIFO
  LockRankTracker::Released(&stranger);  // never acquired: no-op
  EXPECT_EQ(LockRankTracker::HeldCount(), 1u);
  LockRankTracker::Released(&b);
  EXPECT_TRUE(recorded_.empty());
}

TEST_F(LockRankTest, HandlerInstallReturnsPrevious) {
  // SetUp installed RecordViolation over the default (nullptr); a
  // second install must hand RecordViolation back.
  LockRankViolationHandler prev = SetLockRankViolationHandler(nullptr);
  EXPECT_EQ(prev, &RecordViolation);
  SetLockRankViolationHandler(&RecordViolation);
}

TEST_F(LockRankTest, HeldSetsAreThreadLocal) {
  int metrics = 0;
  LockRankTracker::Acquired(&metrics, LockRank::kMetrics, "metrics");
  std::thread other([] {
    // This thread holds nothing, so acquiring a low rank is legal even
    // while the main thread holds kMetrics.
    int journal = 0;
    LockRankTracker::CheckAcquire(&journal, LockRank::kJournal, "journal");
    LockRankTracker::Acquired(&journal, LockRank::kJournal, "journal");
    EXPECT_EQ(LockRankTracker::HeldCount(), 1u);
    LockRankTracker::Released(&journal);
  });
  other.join();
  EXPECT_TRUE(recorded_.empty());
  LockRankTracker::Released(&metrics);
}

TEST(LockRankNameTest, CoversEveryRank) {
  EXPECT_STREQ(LockRankName(LockRank::kUnranked), "kUnranked");
  EXPECT_STREQ(LockRankName(LockRank::kJournal), "kJournal");
  EXPECT_STREQ(LockRankName(LockRank::kFaultInjection), "kFaultInjection");
  EXPECT_STREQ(LockRankName(LockRank::kArtifactCache), "kArtifactCache");
  EXPECT_STREQ(LockRankName(LockRank::kPreparedSlot), "kPreparedSlot");
  EXPECT_STREQ(LockRankName(LockRank::kCupidMemo), "kCupidMemo");
  EXPECT_STREQ(LockRankName(LockRank::kMetrics), "kMetrics");
  EXPECT_STREQ(LockRankName(LockRank::kTracer), "kTracer");
}

// --- Mutex-level behaviour: valentine::Mutex only drives the tracker
// --- when VALENTINE_LOCK_RANK_CHECKS_ENABLED, so the expectations
// --- differ by build type — both branches are asserted.

#if VALENTINE_LOCK_RANK_CHECKS_ENABLED

TEST_F(LockRankTest, MutexWrongOrderLockReportsInversion) {
  Mutex tracer(LockRank::kTracer, "tracer");
  Mutex journal(LockRank::kJournal, "journal");
  tracer.Lock();
  journal.Lock();  // kJournal < kTracer while kTracer is held
  ASSERT_EQ(recorded_.size(), 1u);
  EXPECT_EQ(recorded_[0].kind, LockRankViolation::Kind::kRankInversion);
  EXPECT_STREQ(recorded_[0].acquiring_name, "journal");
  EXPECT_STREQ(recorded_[0].held_name, "tracer");
  journal.Unlock();
  tracer.Unlock();
}

TEST_F(LockRankTest, MutexTryLockOnHeldMutexReportsSelfDeadlock) {
  // try_lock on a std::mutex the thread already owns is UB; the tracker
  // reports it *before* touching the underlying mutex, which is the
  // whole point of checking pre-acquisition.
  Mutex mu(LockRank::kMetrics, "metrics");
  mu.Lock();
  EXPECT_FALSE(mu.TryLock());
  ASSERT_EQ(recorded_.size(), 1u);
  EXPECT_EQ(recorded_[0].kind, LockRankViolation::Kind::kSelfDeadlock);
  mu.Unlock();
}

TEST_F(LockRankTest, MutexLockGuardTracksHeldCount) {
  Mutex outer(LockRank::kArtifactCache, "outer");
  Mutex inner(LockRank::kMetrics, "inner");
  {
    MutexLock lock_outer(&outer);
    EXPECT_EQ(LockRankTracker::HeldCount(), 1u);
    {
      MutexLock lock_inner(&inner);
      EXPECT_EQ(LockRankTracker::HeldCount(), 2u);
    }
    EXPECT_EQ(LockRankTracker::HeldCount(), 1u);
  }
  EXPECT_EQ(LockRankTracker::HeldCount(), 0u);
  EXPECT_TRUE(recorded_.empty());
}

#else  // !VALENTINE_LOCK_RANK_CHECKS_ENABLED

TEST_F(LockRankTest, ReleaseBuildMutexSkipsTheTracker) {
  // NDEBUG builds compile the checking calls out of Mutex entirely: the
  // wrong-order acquisition below would be flagged in a debug build,
  // and the tracker sees no traffic at all.
  Mutex tracer(LockRank::kTracer, "tracer");
  Mutex journal(LockRank::kJournal, "journal");
  tracer.Lock();
  EXPECT_EQ(LockRankTracker::HeldCount(), 0u);
  journal.Lock();
  journal.Unlock();
  tracer.Unlock();
  EXPECT_TRUE(recorded_.empty());
}

#endif  // VALENTINE_LOCK_RANK_CHECKS_ENABLED

TEST_F(LockRankTest, ConcurrentInOrderLockingIsClean) {
  // The shape the library actually uses — per-subsystem mutexes
  // acquired leaf-last from many threads at once. Runs under the tsan
  // label: TSan watches the data, the tracker watches the order.
  Mutex cache(LockRank::kArtifactCache, "cache");
  Mutex metrics(LockRank::kMetrics, "metrics");
  int guarded = 0;
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        MutexLock lock_cache(&cache);
        MutexLock lock_metrics(&metrics);
        ++guarded;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(guarded, 4000);
  EXPECT_TRUE(recorded_.empty());
}

}  // namespace
}  // namespace valentine
