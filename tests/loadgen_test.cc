/**
 * @file
 * Tests for the load generators: open-loop Poisson pacing, offered vs
 * achieved load, coordinated-omission accounting (latency measured
 * from scheduled send time), closed-loop throughput, error counting,
 * and saturation search. Load shapes and per-phase replay are in
 * profile_test.cc.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <mutex>
#include <vector>

#include "base/queue.h"
#include "base/threading.h"
#include "base/time_util.h"
#include "loadgen/loadgen.h"
#include "loadgen/scenario.h"

namespace musuite {
namespace {

TEST(OpenLoopTest, AchievesOfferedLoad)
{
    OpenLoopLoadGen::Options options;
    options.shape = loadgen::LoadShape::constant(2000);
    options.durationNs = 500'000'000;
    options.seed = 1;
    OpenLoopLoadGen generator(options);

    const LoadResult result = generator.run(
        [](uint64_t, std::function<void(bool)> done) { done(true); })
            .front();

    EXPECT_NEAR(result.achievedQps, 2000, 2000 * 0.25);
    EXPECT_EQ(result.completed, result.issued);
    EXPECT_EQ(result.errors, 0u);
}

TEST(OpenLoopTest, PoissonInterArrivalsAreIrregular)
{
    // Record send timestamps; Poisson arrivals have CV ~ 1, a paced
    // (uniform) generator would have CV ~ 0.
    std::vector<int64_t> sends;
    std::mutex mutex;
    OpenLoopLoadGen::Options options;
    options.shape = loadgen::LoadShape::constant(5000);
    options.durationNs = 300'000'000;
    OpenLoopLoadGen generator(options);
    generator.run([&](uint64_t, std::function<void(bool)> done) {
        {
            std::lock_guard<std::mutex> guard(mutex);
            sends.push_back(nowNanos());
        }
        done(true);
    });

    ASSERT_GT(sends.size(), 200u);
    std::vector<double> gaps;
    for (size_t i = 1; i < sends.size(); ++i)
        gaps.push_back(double(sends[i] - sends[i - 1]));
    double mean = 0;
    for (double g : gaps)
        mean += g;
    mean /= double(gaps.size());
    double var = 0;
    for (double g : gaps)
        var += (g - mean) * (g - mean);
    var /= double(gaps.size());
    const double cv = std::sqrt(var) / mean;
    EXPECT_GT(cv, 0.5) << "inter-arrivals look paced, not Poisson";
}

TEST(OpenLoopTest, CoordinatedOmissionAccountedFor)
{
    // A service that stalls must show the stall in recorded latency
    // even though the generator keeps issuing on schedule.
    OpenLoopLoadGen::Options options;
    options.shape = loadgen::LoadShape::constant(1000);
    options.durationNs = 200'000'000;
    OpenLoopLoadGen generator(options);

    std::atomic<int> count{0};
    const LoadResult result = generator.run(
        [&](uint64_t, std::function<void(bool)> done) {
            if (count.fetch_add(1) == 50) {
                // One request stalls 50 ms before completing.
                sleepForNanos(50'000'000);
            }
            done(true);
        }).front();

    // The stall shows up in the tail (and, because issue() runs on the
    // generator thread here, queued requests absorb it too).
    EXPECT_GE(result.latency.maxValue(), 45'000'000);
}

TEST(OpenLoopTest, ErrorsCounted)
{
    OpenLoopLoadGen::Options options;
    options.shape = loadgen::LoadShape::constant(2000);
    options.durationNs = 200'000'000;
    OpenLoopLoadGen generator(options);
    const LoadResult result = generator.run(
        [](uint64_t seq, std::function<void(bool)> done) {
            done(seq % 4 != 0);
        }).front();
    EXPECT_GT(result.errors, 0u);
    EXPECT_NEAR(result.errorRate(), 0.25, 0.08);
}

TEST(OpenLoopTest, AsyncCompletionFromAnotherThread)
{
    // Completions delivered later from a worker thread must all be
    // drained before run() returns.
    BlockingQueue<std::function<void(bool)>> pending;
    ScopedThread completer("completer", [&] {
        while (auto done = pending.pop()) {
            sleepForNanos(100'000);
            (*done)(true);
        }
    });

    OpenLoopLoadGen::Options options;
    options.shape = loadgen::LoadShape::constant(3000);
    options.durationNs = 200'000'000;
    OpenLoopLoadGen generator(options);
    const LoadResult result = generator.run(
        [&](uint64_t, std::function<void(bool)> done) {
            pending.push(std::move(done));
        }).front();
    pending.close();
    completer.join();

    EXPECT_EQ(result.completed, result.issued);
    EXPECT_GT(result.completed, 100u);
    // Latency includes the 100us completion delay.
    EXPECT_GE(result.latency.valueAtQuantile(0.5), 100'000);
}

TEST(ClosedLoopTest, ThroughputScalesWithServiceTime)
{
    ClosedLoopLoadGen::Options options;
    options.workers = 2;
    options.durationNs = 300'000'000;
    ClosedLoopLoadGen generator(options);
    const LoadResult result = generator.run([](uint64_t) {
        sleepForNanos(1'000'000); // 1 ms service time.
        return true;
    });
    // 2 workers x ~1000 QPS each (wide margin: single-core hosts
    // timeslice the workers against the test runner itself).
    EXPECT_NEAR(result.achievedQps, 2000, 900);
    EXPECT_EQ(result.errors, 0u);
}

TEST(ClosedLoopTest, CountsErrors)
{
    ClosedLoopLoadGen::Options options;
    options.workers = 1;
    options.durationNs = 100'000'000;
    ClosedLoopLoadGen generator(options);
    const LoadResult result =
        generator.run([](uint64_t seq) { return seq % 2 == 0; });
    EXPECT_GT(result.errors, 0u);
    EXPECT_NEAR(result.errorRate(), 0.5, 0.1);
}

TEST(SaturationTest, FindsPlateauOfRateLimitedService)
{
    // A service with capacity ~4 concurrent * 1/2ms = ~2000 QPS.
    const double peak = findSaturationThroughput(
        [](uint64_t) {
            sleepForNanos(500'000);
            return true;
        },
        /*max_workers=*/8, /*per_step_ns=*/150'000'000);
    EXPECT_GT(peak, 700.0);
}

} // namespace
} // namespace musuite
