/**
 * @file
 * Tests for base utilities: RNG distributions, Zipf/alias samplers,
 * blocking queue semantics, latch, clocks, status/result types.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <set>
#include <vector>

#include "base/queue.h"
#include "base/rng.h"
#include "base/status.h"
#include "base/threading.h"
#include "base/time_util.h"

namespace musuite {
namespace {

TEST(RngTest, Deterministic)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(RngTest, BoundedStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.nextBounded(17), 17u);
}

TEST(RngTest, BoundedIsRoughlyUniform)
{
    Rng rng(9);
    constexpr uint64_t buckets = 8;
    constexpr int draws = 80000;
    std::vector<int> counts(buckets, 0);
    for (int i = 0; i < draws; ++i)
        counts[rng.nextBounded(buckets)]++;
    for (int count : counts) {
        EXPECT_NEAR(count, draws / double(buckets),
                    5 * std::sqrt(draws / double(buckets)));
    }
}

TEST(RngTest, DoubleInUnitInterval)
{
    Rng rng(11);
    for (int i = 0; i < 10000; ++i) {
        const double v = rng.nextDouble();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(RngTest, GaussianMoments)
{
    Rng rng(13);
    constexpr int n = 100000;
    double sum = 0, sum2 = 0;
    for (int i = 0; i < n; ++i) {
        const double v = rng.nextGaussian();
        sum += v;
        sum2 += v * v;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(RngTest, ExponentialMean)
{
    Rng rng(17);
    constexpr int n = 100000;
    const double rate = 0.25;
    double sum = 0;
    for (int i = 0; i < n; ++i)
        sum += rng.nextExponential(rate);
    EXPECT_NEAR(sum / n, 1.0 / rate, 0.1);
}

TEST(RngTest, PoissonMeanSmallAndLarge)
{
    Rng rng(19);
    for (double mean : {0.5, 4.0, 20.0, 100.0}) {
        constexpr int n = 20000;
        double sum = 0;
        for (int i = 0; i < n; ++i)
            sum += double(rng.nextPoisson(mean));
        EXPECT_NEAR(sum / n, mean, std::max(0.1, mean * 0.05))
            << "mean=" << mean;
    }
}

TEST(RngTest, SplitProducesIndependentStream)
{
    Rng parent(23);
    Rng child = parent.split();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += parent.next() == child.next();
    EXPECT_LT(same, 2);
}

TEST(ZipfTest, RanksInRange)
{
    Rng rng(29);
    ZipfSampler zipf(1000, 0.99);
    for (int i = 0; i < 20000; ++i) {
        const uint64_t rank = zipf.sample(rng);
        EXPECT_GE(rank, 1u);
        EXPECT_LE(rank, 1000u);
    }
}

TEST(ZipfTest, FrequencyFollowsPowerLaw)
{
    Rng rng(31);
    const double s = 1.0;
    ZipfSampler zipf(1000, s);
    constexpr int draws = 400000;
    std::vector<int> counts(1001, 0);
    for (int i = 0; i < draws; ++i)
        counts[zipf.sample(rng)]++;
    // Under Zipf(s=1), f(1)/f(2) ~ 2, f(1)/f(4) ~ 4.
    EXPECT_GT(counts[1], counts[2]);
    EXPECT_NEAR(double(counts[1]) / counts[2], 2.0, 0.4);
    EXPECT_NEAR(double(counts[1]) / counts[4], 4.0, 0.9);
}

TEST(ZipfTest, HighSkewConcentratesMass)
{
    Rng rng(37);
    ZipfSampler zipf(100000, 1.2);
    constexpr int draws = 50000;
    int top10 = 0;
    for (int i = 0; i < draws; ++i)
        top10 += zipf.sample(rng) <= 10;
    EXPECT_GT(top10, draws / 4);
}

TEST(AliasTest, MatchesWeights)
{
    Rng rng(41);
    AliasSampler alias({1.0, 2.0, 3.0, 4.0});
    constexpr int draws = 200000;
    std::vector<int> counts(4, 0);
    for (int i = 0; i < draws; ++i)
        counts[alias.sample(rng)]++;
    for (int i = 0; i < 4; ++i) {
        const double expected = draws * (i + 1) / 10.0;
        EXPECT_NEAR(counts[i], expected, expected * 0.05);
    }
}

TEST(AliasTest, ZeroWeightNeverSampled)
{
    Rng rng(43);
    AliasSampler alias({0.0, 1.0, 0.0, 1.0});
    for (int i = 0; i < 20000; ++i) {
        const uint64_t v = alias.sample(rng);
        EXPECT_TRUE(v == 1 || v == 3);
    }
}

TEST(QueueTest, FifoOrder)
{
    BlockingQueue<int> queue;
    for (int i = 0; i < 10; ++i)
        EXPECT_TRUE(queue.push(i));
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(queue.pop().value(), i);
}

TEST(QueueTest, CloseWakesConsumers)
{
    BlockingQueue<int> queue;
    std::atomic<int> drained{0};
    ScopedThread consumer("consumer", [&] {
        while (queue.pop())
            drained.fetch_add(1);
    });
    queue.push(1);
    queue.push(2);
    queue.close();
    consumer.join();
    EXPECT_EQ(drained.load(), 2);
}

TEST(QueueTest, TryPushRespectsCapacity)
{
    BlockingQueue<int> queue(2);
    EXPECT_TRUE(queue.tryPush(1));
    EXPECT_TRUE(queue.tryPush(2));
    EXPECT_FALSE(queue.tryPush(3));
    EXPECT_EQ(queue.pop().value(), 1);
    EXPECT_TRUE(queue.tryPush(3));
}

TEST(QueueTest, PushAfterCloseFails)
{
    BlockingQueue<int> queue;
    queue.close();
    EXPECT_FALSE(queue.push(1));
    EXPECT_FALSE(queue.pop().has_value());
}

TEST(QueueTest, ManyProducersManyConsumers)
{
    BlockingQueue<int> queue(64);
    constexpr int per_producer = 500;
    constexpr int producers = 4;
    constexpr int consumers = 3;
    std::atomic<long> sum{0};
    std::atomic<int> popped{0};
    {
        std::vector<ScopedThread> threads;
        for (int p = 0; p < producers; ++p) {
            threads.emplace_back("prod", [&, p] {
                for (int i = 0; i < per_producer; ++i)
                    queue.push(p * per_producer + i);
            });
        }
        for (int c = 0; c < consumers; ++c) {
            threads.emplace_back("cons", [&] {
                while (auto item = queue.pop()) {
                    sum.fetch_add(*item);
                    popped.fetch_add(1);
                }
            });
        }
        // Join producers (first `producers` threads) by scoping trick:
        // close after all pushes; producers finish first because
        // consumers only exit on close.
        for (int p = 0; p < producers; ++p)
            threads[size_t(p)].join();
        queue.close();
    }
    const long n = long(producers) * per_producer;
    EXPECT_EQ(popped.load(), n);
    EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

TEST(LatchTest, ReleasesAtZero)
{
    CountdownLatch latch(3);
    EXPECT_FALSE(latch.countDown());
    EXPECT_FALSE(latch.countDown());
    EXPECT_TRUE(latch.countDown());
    latch.wait(); // Must not block.
    EXPECT_EQ(latch.pending(), 0u);
}

TEST(LatchTest, ExtraCountDownIsIgnored)
{
    CountdownLatch latch(1);
    EXPECT_TRUE(latch.countDown());
    EXPECT_FALSE(latch.countDown());
}

TEST(CondVarTest, WaitForReturnsFalseOnTimeoutAndTrueWhenWoken)
{
    Mutex mutex;
    CondVar cv;
    MutexLock lock(mutex);
    const int64_t start = nowNanos();
    EXPECT_FALSE(cv.waitFor(lock, 2'000'000 /* 2 ms */));
    EXPECT_GE(nowNanos() - start, 2'000'000);
    EXPECT_TRUE(lock.ownsLock());

    bool ready = false;
    ScopedThread notifier("notifier", [&] {
        MutexLock guard(mutex);
        ready = true;
        cv.notifyOne();
    });
    bool woken = true;
    while (!ready)
        woken = cv.waitFor(lock, 10'000'000'000 /* 10 s */);
    EXPECT_TRUE(woken);
}

TEST(TimeTest, MonotonicAdvances)
{
    const int64_t a = nowNanos();
    const int64_t b = nowNanos();
    EXPECT_GE(b, a);
}

TEST(TimeTest, SleepUntilReachesDeadline)
{
    const int64_t deadline = nowNanos() + 2'000'000; // 2 ms.
    sleepUntilNanos(deadline);
    EXPECT_GE(nowNanos(), deadline);
}

TEST(TimeTest, FormatNanosUnits)
{
    EXPECT_EQ(formatNanos(500), "500ns");
    EXPECT_EQ(formatNanos(1500), "1.50us");
    EXPECT_EQ(formatNanos(2'500'000), "2.50ms");
    EXPECT_EQ(formatNanos(3'000'000'000), "3.00s");
}

TEST(StatusTest, OkAndErrors)
{
    EXPECT_TRUE(Status::ok().isOk());
    Status err(StatusCode::NotFound, "missing");
    EXPECT_FALSE(err.isOk());
    EXPECT_EQ(err.toString(), "NOT_FOUND: missing");
}

// A Reply carries its payload only on success: a failed call's body
// is dropped, so reading payload() never needs a check to be safe.
TEST(ReplyTest, PayloadOnlyOnSuccess)
{
    const Reply ok(Status::ok(), "body");
    EXPECT_TRUE(ok.isOk());
    EXPECT_EQ(ok.payload(), "body");

    const Reply bad(Status(StatusCode::Internal, "boom"), "partial");
    EXPECT_FALSE(bad.isOk());
    EXPECT_EQ(bad.status().code(), StatusCode::Internal);
    EXPECT_EQ(bad.payload(), "");
}

} // namespace
} // namespace musuite
