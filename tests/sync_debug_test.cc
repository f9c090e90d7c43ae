/**
 * @file
 * Tests for the annotated synchronization wrappers (base/threading.h)
 * and the MUSUITE_DEBUG_SYNC runtime checker (base/sync_debug.h).
 *
 * The first half runs in every build: the wrappers must behave
 * exactly like the raw std primitives they wrap. The second half is
 * compiled only under MUSUITE_DEBUG_SYNC and uses death tests to pin
 * the checker's abort behavior: lock-rank violations, recursive
 * acquisition, ABBA acquisition cycles, and thread-role violations.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "base/sync_debug.h"
#include "base/threading.h"

namespace musuite {
namespace {

// ---- wrapper behavior (all builds) ----------------------------------

TEST(MutexTest, ProvidesMutualExclusion)
{
    Mutex mutex;
    int shared = 0;
    constexpr int kThreads = 4;
    constexpr int kIters = 2000;
    {
        std::vector<ScopedThread> threads;
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back("mx-" + std::to_string(t), [&] {
                for (int i = 0; i < kIters; ++i) {
                    MutexLock lock(mutex);
                    shared++;
                }
            });
        }
    }
    MutexLock lock(mutex);
    EXPECT_EQ(shared, kThreads * kIters);
}

TEST(MutexTest, TryLockFailsWhenHeldElsewhere)
{
    Mutex mutex;
    mutex.lock();
    std::atomic<int> observed{-1};
    {
        ScopedThread probe("trylock", [&] {
            observed.store(mutex.try_lock() ? 1 : 0);
        });
    }
    EXPECT_EQ(observed.load(), 0);
    mutex.unlock();
    EXPECT_TRUE(mutex.try_lock());
    mutex.unlock();
}

TEST(MutexLockTest, EarlyUnlockAndRelock)
{
    Mutex mutex;
    MutexLock lock(mutex);
    EXPECT_TRUE(lock.ownsLock());
    lock.unlock();
    EXPECT_FALSE(lock.ownsLock());
    EXPECT_TRUE(mutex.try_lock());
    mutex.unlock();
    lock.lock();
    EXPECT_TRUE(lock.ownsLock());
}

TEST(CondVarTest, NotifyWakesWaiter)
{
    Mutex mutex;
    CondVar cv;
    bool ready = false;
    ScopedThread producer("producer", [&] {
        MutexLock lock(mutex);
        ready = true;
        lock.unlock();
        cv.notifyOne();
    });
    MutexLock lock(mutex);
    while (!ready)
        cv.wait(lock);
    EXPECT_TRUE(ready);
}

TEST(CondVarTest, WaitForTimesOut)
{
    Mutex mutex;
    CondVar cv;
    MutexLock lock(mutex);
    // Nothing ever signals: waitFor must return false (timeout) and
    // leave the lock held.
    EXPECT_FALSE(cv.waitFor(lock, 5'000'000 /* 5 ms */));
    EXPECT_TRUE(lock.ownsLock());
}

TEST(SyncDebugTest, ThreadRoleRoundTrips)
{
    EXPECT_EQ(currentThreadRole(), ThreadRole::unknown);
    {
        ScopedThread worker("role", [] {
            setCurrentThreadRole(ThreadRole::worker);
            EXPECT_EQ(currentThreadRole(), ThreadRole::worker);
        });
    }
    // Roles are thread-local: this thread is unaffected.
    EXPECT_EQ(currentThreadRole(), ThreadRole::unknown);
}

TEST(SyncDebugTest, UnknownRolePassesAllAssertions)
{
    // Test threads have no declared role; every assertion is a no-op.
    assertOnPollerThread();
    assertOnWorkerThread();
    assertOnCompletionThread();
    assertOnTimerThread();
    assertOnFrameReaderThread();
}

TEST(SyncDebugTest, RankedLocksInOrderAreAccepted)
{
    Mutex low(LockRank::fanout, "test.low");
    Mutex high(LockRank::counters, "test.high");
    MutexLock a(low);
    MutexLock b(high); // fanout(20) -> counters(80): increasing, OK.
}

#if defined(MUSUITE_DEBUG_SYNC) && MUSUITE_DEBUG_SYNC

// ---- checker behavior (debug-sync builds only) ----------------------

using SyncDebugDeathTest = ::testing::Test;

TEST(SyncDebugDeathTest, RankViolationAborts)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    Mutex high(LockRank::counters, "test.high");
    Mutex low(LockRank::fanout, "test.low");
    EXPECT_DEATH(
        {
            MutexLock a(high);
            MutexLock b(low); // counters(80) -> fanout(20): backwards.
        },
        "lock rank violation");
}

TEST(SyncDebugDeathTest, RecursiveAcquisitionAborts)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    Mutex mutex(LockRank::counters, "test.recursive");
    EXPECT_DEATH(
        {
            MutexLock a(mutex);
            mutex.lock();
        },
        "recursive acquisition");
}

TEST(SyncDebugDeathTest, AcquisitionCycleAborts)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_DEATH(
        {
            // Unranked locks are tracked per instance; taking a->b
            // then b->a closes a cycle in the acquisition graph even
            // though no deadlock happens on this single thread.
            Mutex a;
            Mutex b;
            {
                MutexLock la(a);
                MutexLock lb(b);
            }
            {
                MutexLock lb(b);
                MutexLock la(a);
            }
        },
        "lock acquisition cycle");
}

TEST(SyncDebugDeathTest, WrongThreadRoleAborts)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_DEATH(
        {
            setCurrentThreadRole(ThreadRole::worker);
            assertOnPollerThread();
        },
        "thread role violation");
}

TEST(SyncDebugTest, HeldLockCountTracksScopes)
{
    EXPECT_EQ(syncdbg::heldLockCount(), 0u);
    Mutex low(LockRank::fanout, "test.low");
    Mutex high(LockRank::counters, "test.high");
    {
        MutexLock a(low);
        EXPECT_EQ(syncdbg::heldLockCount(), 1u);
        MutexLock b(high);
        EXPECT_EQ(syncdbg::heldLockCount(), 2u);
    }
    EXPECT_EQ(syncdbg::heldLockCount(), 0u);
}

TEST(SyncDebugTest, CondVarWaitLeavesTheHeldLockStackExact)
{
    Mutex outer(LockRank::fanout, "test.outer");
    Mutex inner(LockRank::call, "test.inner");
    Mutex after(LockRank::counters, "test.after");
    CondVar cv;
    bool ready = false;
    {
        MutexLock a(outer);
        MutexLock b(inner);
        ScopedThread notifier("notifier", [&] {
            MutexLock lock(inner);
            ready = true;
            cv.notifyAll();
        });
        while (!ready)
            cv.wait(b);
        EXPECT_EQ(syncdbg::heldLockCount(), 2u);
        EXPECT_FALSE(cv.waitFor(b, 1'000'000 /* 1 ms */));
        EXPECT_EQ(syncdbg::heldLockCount(), 2u);
        // inner is back on top of the stack: a lock ranked above it is
        // in order after the waits.
        MutexLock c(after);
        EXPECT_EQ(syncdbg::heldLockCount(), 3u);
    }
    // Each lock left the stack exactly once: none lingers to make the
    // next acquisition look recursive.
    EXPECT_EQ(syncdbg::heldLockCount(), 0u);
    MutexLock again(inner);
    EXPECT_EQ(syncdbg::heldLockCount(), 1u);
}

TEST(SyncDebugDeathTest, RankViolationAfterCondVarWaitAborts)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    Mutex high(LockRank::counters, "test.high");
    Mutex low(LockRank::fanout, "test.low");
    CondVar cv;
    EXPECT_DEATH(
        {
            MutexLock a(high);
            (void)cv.waitFor(a, 1'000'000 /* 1 ms */);
            MutexLock b(low); // Still holding high(80): backwards.
        },
        "lock rank violation");
}

TEST(SyncDebugTest, MatchingRoleAssertionPasses)
{
    ScopedThread poller("poller", [] {
        setCurrentThreadRole(ThreadRole::poller);
        assertOnPollerThread();
        assertOnFrameReaderThread(); // poller is a valid frame reader.
    });
}

#endif // MUSUITE_DEBUG_SYNC

} // namespace
} // namespace musuite
