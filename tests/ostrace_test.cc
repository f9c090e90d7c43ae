/**
 * @file
 * Tests for the OS-overhead instrumentation: category recording and
 * windowing, syscall counters, traced mutex/condvar futex accounting,
 * wakeup-latency capture, and rusage context-switch sampling.
 */

#include <gtest/gtest.h>

#include <mutex>
#include <thread>

#include "base/queue.h"
#include "base/threading.h"
#include "base/time_util.h"
#include "ostrace/ostrace.h"
#include "ostrace/rusage.h"
#include "ostrace/sync.h"
#include "ostrace/syscalls.h"

namespace musuite {
namespace {

TEST(OsTraceTest, CategoryNamesMatchPaper)
{
    EXPECT_STREQ(osCategoryName(OsCategory::Hardirq), "Hardirq");
    EXPECT_STREQ(osCategoryName(OsCategory::NetTx), "Net_tx");
    EXPECT_STREQ(osCategoryName(OsCategory::ActiveExe), "Active-Exe");
    EXPECT_EQ(allOsCategories().size(), numOsCategories);
}

TEST(OsTraceTest, RecordAndCollect)
{
    osTrace().reset();
    recordOs(OsCategory::Sched, 1000);
    recordOs(OsCategory::Sched, 2000);
    recordOs(OsCategory::Net, 5000);

    auto histograms = osTrace().collect();
    EXPECT_EQ(histograms[size_t(OsCategory::Sched)].count(), 2u);
    EXPECT_EQ(histograms[size_t(OsCategory::Net)].count(), 1u);
    EXPECT_EQ(histograms[size_t(OsCategory::Hardirq)].count(), 0u);

    // Collect resets the window.
    auto again = osTrace().collect();
    EXPECT_EQ(again[size_t(OsCategory::Sched)].count(), 0u);
}

TEST(OsTraceTest, MultiThreadedRecording)
{
    osTrace().reset();
    constexpr int threads = 4;
    constexpr int per_thread = 1000;
    {
        std::vector<ScopedThread> workers;
        for (int t = 0; t < threads; ++t) {
            workers.emplace_back("rec", [&] {
                for (int i = 0; i < per_thread; ++i)
                    recordOs(OsCategory::Block, 100 + i);
            });
        }
    }
    auto histograms = osTrace().collect();
    EXPECT_EQ(histograms[size_t(OsCategory::Block)].count(),
              uint64_t(threads) * per_thread);
}

TEST(OsTraceTest, DisableStopsRecording)
{
    osTrace().reset();
    osTrace().setEnabled(false);
    recordOs(OsCategory::Rcu, 42);
    osTrace().setEnabled(true);
    auto histograms = osTrace().collect();
    EXPECT_EQ(histograms[size_t(OsCategory::Rcu)].count(), 0u);
}

TEST(SyscallTest, NamesAndOrder)
{
    EXPECT_STREQ(syscallName(Sys::Futex), "futex");
    EXPECT_STREQ(syscallName(Sys::EpollPwait), "epoll_pwait");
    EXPECT_EQ(allSyscalls().size(), numSyscalls);
    EXPECT_EQ(allSyscalls()[0], Sys::Mprotect);
}

TEST(SyscallTest, CountAndDiff)
{
    resetSyscalls();
    countSyscall(Sys::Read, 3);
    const SyscallSnapshot mid = snapshotSyscalls();
    countSyscall(Sys::Read);
    countSyscall(Sys::Write, 5);
    const SyscallSnapshot delta = diffSyscalls(mid, snapshotSyscalls());
    EXPECT_EQ(delta[size_t(Sys::Read)], 1u);
    EXPECT_EQ(delta[size_t(Sys::Write)], 5u);
    EXPECT_EQ(delta[size_t(Sys::Futex)], 0u);
}

TEST(TracedSyncTest, UncontendedLockCountsNoFutex)
{
    resetSyscalls();
    resetContentionStats();
    TracedMutex mutex;
    for (int i = 0; i < 100; ++i) {
        std::unique_lock<TracedMutex> lock(mutex);
    }
    EXPECT_EQ(contentionStats().lockContended.load(), 0u);
    EXPECT_EQ(snapshotSyscalls()[size_t(Sys::Futex)], 0u);
}

TEST(TracedSyncTest, ContendedLockCountsFutexAndHitm)
{
    resetSyscalls();
    resetContentionStats();
    TracedMutex mutex;
    std::atomic<bool> held{false};

    std::unique_lock<TracedMutex> outer(mutex);
    ScopedThread contender("contender", [&] {
        held.store(true);
        std::unique_lock<TracedMutex> inner(mutex); // Must contend.
    });
    while (!held.load()) {
    }
    sleepForNanos(2'000'000); // Let the contender hit the lock.
    outer.unlock();
    contender.join();

    EXPECT_GE(contentionStats().lockContended.load(), 1u);
    EXPECT_GE(snapshotSyscalls()[size_t(Sys::Futex)], 1u);
}

/** Spin until the traced primitives have counted `n` futex waits. */
void
awaitFutexWaits(uint64_t n)
{
    while (contentionStats().futexWaits.load() < n)
        std::this_thread::yield();
}

TEST(TracedSyncTest, CondvarWaitRecordsBlockAndActiveExe)
{
    osTrace().reset();
    resetContentionStats();

    TracedMutex mutex;
    TracedCondVar condvar;
    bool ready = false;

    ScopedThread waiter("waiter", [&] {
        std::unique_lock<TracedMutex> lock(mutex);
        condvar.wait(lock, [&] { return ready; });
    });

    // Handshake instead of a sleep: the waiter counts its futex wait
    // while it still holds the mutex, and releases it only inside
    // wait(), after stamping the start of its block. Taking the mutex
    // once therefore proves the waiter is parked.
    awaitFutexWaits(1);
    {
        std::unique_lock<TracedMutex> lock(mutex);
    }
    sleepForNanos(5'000'000); // The park the Block histogram must cover.
    {
        std::unique_lock<TracedMutex> lock(mutex);
        ready = true;
    }
    condvar.notify_one();
    waiter.join();

    auto histograms = osTrace().collect();
    EXPECT_GE(histograms[size_t(OsCategory::Block)].count(), 1u);
    // Block time covers the 5 ms park.
    EXPECT_GE(histograms[size_t(OsCategory::Block)].maxValue(),
              4'000'000);
    EXPECT_GE(histograms[size_t(OsCategory::ActiveExe)].count(), 1u);
    // Wakeup latency is far smaller than the blocked time.
    EXPECT_LT(histograms[size_t(OsCategory::ActiveExe)].maxValue(),
              histograms[size_t(OsCategory::Block)].maxValue());
    EXPECT_GE(contentionStats().futexWaits.load(), 1u);
    EXPECT_GE(contentionStats().futexWakes.load(), 1u);
}

TEST(TracedSyncTest, NotifyWithoutWaitersSkipsFutex)
{
    resetSyscalls();
    resetContentionStats();
    TracedCondVar condvar;
    condvar.notify_one();
    condvar.notify_all();
    EXPECT_EQ(contentionStats().futexWakes.load(), 0u);
}

TEST(TracedSyncTest, WorksInsideBlockingQueue)
{
    osTrace().reset();
    resetContentionStats();
    BlockingQueue<int, TracedMutex, TracedCondVar> queue;

    std::atomic<int> sum{0};
    {
        std::vector<ScopedThread> workers;
        for (int w = 0; w < 2; ++w) {
            workers.emplace_back("qworker", [&] {
                while (auto item = queue.pop())
                    sum.fetch_add(*item);
            });
        }
        // Two futex waits include at least one condvar wait: a worker
        // only contends while the other holds the mutex, and that one
        // parks before it lets go. push() then takes the mutex only
        // after a parked worker has registered, so its notify wakes it.
        awaitFutexWaits(2);
        for (int i = 1; i <= 100; ++i)
            queue.push(i);
        queue.close();
    }
    EXPECT_EQ(sum.load(), 5050);
    // Parked workers were woken via futex.
    EXPECT_GE(contentionStats().futexWakes.load(), 1u);
}

TEST(RusageTest, ContextSwitchesIncreaseWithSleeps)
{
    const ContextSwitches before = sampleContextSwitches();
    for (int i = 0; i < 10; ++i)
        sleepForNanos(1'000'000); // Voluntary switches.
    const ContextSwitches delta =
        diffContextSwitches(before, sampleContextSwitches());
    EXPECT_GE(delta.voluntary, 5u);
    EXPECT_EQ(delta.total(), delta.voluntary + delta.involuntary);
}

} // namespace
} // namespace musuite
