/**
 * @file
 * Tests for time-varying load profiles: the LoadShape library
 * (constant, flash-crowd, diurnal), the seeded arrival schedule drawn
 * from a shape, and OpenLoopLoadGen's per-phase replay of that
 * schedule on both clock bindings (exact phase bucketing, per-phase
 * shed and error accounting, late completions after the drain, crowd
 * latency), plus the per-request spans the phases are counted from.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "base/clock.h"
#include "loadgen/loadgen.h"
#include "loadgen/scenario.h"
#include "simkernel/simclock.h"

namespace musuite {
namespace {

/**
 * OpenLoopLoadGen on either binding: the generator binds the ambient
 * clock, so each case runs once on a RealClock (wall time, a timer
 * thread) and once on a SimClock (virtual time, exact).
 */
template <typename ClockT>
class OpenLoopTest : public ::testing::Test
{
  protected:
    static constexpr bool kSim = std::is_same_v<ClockT, sim::SimClock>;

    ClockT clock;
    ScopedClock ambient{clock};
};

struct ClockName
{
    template <typename ClockT>
    static std::string
    GetName(int)
    {
        return std::is_same_v<ClockT, sim::SimClock> ? "SimClock"
                                                     : "RealClock";
    }
};

using BothClocks = ::testing::Types<sim::SimClock, RealClock>;
TYPED_TEST_SUITE(OpenLoopTest, BothClocks, ClockName);

TYPED_TEST(OpenLoopTest, PhasesReplayTheScheduleExactly)
{
    // 3 phases at 500 / 2500 / 500 QPS: each phase issues exactly the
    // schedule offsets that fall inside its window.
    const int64_t phase_ns = 300'000'000;
    OpenLoopLoadGen::Options options;
    options.shape =
        loadgen::LoadShape::flashCrowd(500.0, 2500.0, phase_ns, phase_ns);
    options.durationNs = 3 * phase_ns;
    options.seed = 5;
    options.phaseBounds = {0, phase_ns, 2 * phase_ns};
    const std::vector<int64_t> schedule = loadgen::arrivalSchedule(
        options.shape, options.durationNs, options.seed);
    uint64_t expected[3] = {0, 0, 0};
    for (int64_t offset : schedule)
        expected[offset / phase_ns]++;

    OpenLoopLoadGen generator(options);
    const std::vector<LoadResult> phases = generator.run(
        [](uint64_t, std::function<void(bool)> done) { done(true); });

    ASSERT_EQ(phases.size(), 3u);
    uint64_t total = 0;
    for (size_t i = 0; i < phases.size(); ++i) {
        EXPECT_EQ(phases[i].issued, expected[i]) << "phase " << i;
        EXPECT_EQ(phases[i].completed, phases[i].issued);
        EXPECT_EQ(phases[i].errors, 0u);
        total += phases[i].issued;
    }
    EXPECT_EQ(total, schedule.size());
    EXPECT_DOUBLE_EQ(phases[0].offeredQps, 500.0);
    EXPECT_DOUBLE_EQ(phases[1].offeredQps, 2500.0);
    EXPECT_DOUBLE_EQ(phases[2].offeredQps, 500.0);

    // One span per arrival, never issued before it is due.
    const std::vector<RequestSpan> &spans = generator.spans();
    ASSERT_EQ(spans.size(), schedule.size());
    for (size_t seq = 0; seq < spans.size(); ++seq) {
        EXPECT_EQ(spans[seq].scheduledNs, schedule[seq]);
        EXPECT_GE(spans[seq].issuedNs, spans[seq].scheduledNs);
        EXPECT_GE(spans[seq].completedNs, spans[seq].issuedNs);
        if (TestFixture::kSim) {
            EXPECT_EQ(spans[seq].issuedNs, spans[seq].scheduledNs);
        }
    }
}

TYPED_TEST(OpenLoopTest, SinglePhaseByDefault)
{
    OpenLoopLoadGen::Options options;
    options.shape = loadgen::LoadShape::constant(2000.0);
    options.durationNs = 100'000'000;
    const size_t scheduled =
        loadgen::arrivalSchedule(options.shape, options.durationNs,
                                 options.seed)
            .size();
    OpenLoopLoadGen generator(options);
    const std::vector<LoadResult> phases = generator.run(
        [](uint64_t, std::function<void(bool)> done) { done(true); });
    ASSERT_EQ(phases.size(), 1u);
    EXPECT_EQ(phases[0].issued, scheduled);
    EXPECT_DOUBLE_EQ(phases[0].offeredQps, 2000.0);
}

TYPED_TEST(OpenLoopTest, ShedsAndErrorsCountedPerPhase)
{
    // seq % 3: 0 completes, 1 fails, 2 is shed. Sheds are errors too,
    // and breakdown() splits them back out, phase by phase.
    const int64_t half_ns = 150'000'000;
    OpenLoopLoadGen::Options options;
    options.shape = loadgen::LoadShape::constant(1000.0);
    options.durationNs = 2 * half_ns;
    options.phaseBounds = {0, half_ns};
    const std::vector<int64_t> schedule = loadgen::arrivalSchedule(
        options.shape, options.durationNs, options.seed);
    uint64_t expected[2][3] = {};
    for (size_t seq = 0; seq < schedule.size(); ++seq)
        expected[schedule[seq] / half_ns][seq % 3]++;

    OpenLoopLoadGen generator(options);
    const std::vector<LoadResult> phases = generator.run(
        [](uint64_t seq, std::function<void(RequestOutcome)> done) {
            if (seq % 3 == 0)
                done(RequestOutcome(true));
            else if (seq % 3 == 1)
                done(RequestOutcome(false));
            else
                done(RequestOutcome::shedRequest());
        });

    ASSERT_EQ(phases.size(), 2u);
    for (size_t i = 0; i < phases.size(); ++i) {
        const LoadResult &phase = phases[i];
        EXPECT_GT(phase.shed, 0u) << "phase " << i;
        EXPECT_EQ(phase.completed, expected[i][0]);
        EXPECT_EQ(phase.errors, expected[i][1] + expected[i][2]);
        EXPECT_EQ(phase.shed, expected[i][2]);
        EXPECT_NEAR(phase.errorRate(), 2.0 / 3.0, 0.1);

        const ShedAcceptBreakdown breakdown = phase.breakdown(0);
        EXPECT_EQ(breakdown.offered, phase.issued);
        EXPECT_EQ(breakdown.completed, expected[i][0]);
        EXPECT_EQ(breakdown.shed, expected[i][2]);
        EXPECT_EQ(breakdown.failed, expected[i][1]);
        EXPECT_EQ(breakdown.goodput, expected[i][0]);
    }
}

TYPED_TEST(OpenLoopTest, LateCompletionsAfterTheDrainAreSafe)
{
    // Completions that arrive after the drain timeout, once the
    // caller has dropped the generator and its results, must not
    // touch freed memory (the ASan build runs this).
    std::vector<std::function<void(RequestOutcome)>> stashed;
    OpenLoopLoadGen::Options options;
    options.shape = loadgen::LoadShape::constant(2000.0);
    options.durationNs = 100'000'000;
    options.drainTimeoutNs = 1'000'000;
    options.phaseBounds = {0, 50'000'000};
    {
        OpenLoopLoadGen generator(options);
        const std::vector<LoadResult> phases = generator.run(
            [&](uint64_t, std::function<void(RequestOutcome)> done) {
                stashed.push_back(std::move(done));
            });
        ASSERT_EQ(phases.size(), 2u);
        for (const LoadResult &phase : phases) {
            EXPECT_GT(phase.issued, 0u);
            EXPECT_EQ(phase.completed + phase.errors, 0u);
        }
        for (const RequestSpan &span : generator.spans())
            EXPECT_FALSE(span.completed());
    }
    ASSERT_FALSE(stashed.empty());
    for (size_t i = 0; i < stashed.size(); ++i) {
        stashed[i](i % 2 == 0 ? RequestOutcome(true)
                              : RequestOutcome::shedRequest());
    }
}

TYPED_TEST(OpenLoopTest, SpikeLatencyVisibleInPhaseHistograms)
{
    // A one-slot FIFO service taking 1 ms per request: the calm phase
    // (300 QPS) rarely queues, the crowd (2400 QPS) backs up behind
    // it, so the crowd phase must record worse latency.
    const int64_t phase_ns = 200'000'000;
    const int64_t service_ns = 1'000'000;
    OpenLoopLoadGen::Options options;
    options.shape =
        loadgen::LoadShape::flashCrowd(300.0, 2400.0, phase_ns, phase_ns);
    options.durationNs = 3 * phase_ns;
    options.seed = 9;
    options.phaseBounds = {0, phase_ns, 2 * phase_ns};
    OpenLoopLoadGen generator(options);

    Clock &clock = this->clock;
    int64_t busy_until = 0; // Touched only by the issuing thread.
    const std::vector<LoadResult> phases = generator.run(
        [&](uint64_t, std::function<void(RequestOutcome)> done) {
            const int64_t now = clock.nowNanos();
            busy_until = std::max(busy_until, now) + service_ns;
            clock.schedule(busy_until - now,
                           [done = std::move(done)] { done(true); });
        });

    ASSERT_EQ(phases.size(), 3u);
    EXPECT_GT(phases[1].latency.valueAtQuantile(0.99),
              phases[0].latency.valueAtQuantile(0.99));
    if (!TestFixture::kSim)
        return;
    // Virtual time is exact: every latency is the queue's own
    // arithmetic over the schedule.
    Histogram expected[3];
    int64_t busy = 0;
    for (int64_t offset : loadgen::arrivalSchedule(
             options.shape, options.durationNs, options.seed)) {
        busy = std::max(busy, offset) + service_ns;
        expected[offset / phase_ns].record(busy - offset);
    }
    for (size_t i = 0; i < 3; ++i)
        EXPECT_EQ(phases[i].latency.toCsv(), expected[i].toCsv());
}

TEST(OpenLoopSpanTest, SimSpansAreExactAndRecountToThePhases)
{
    // Request seq completes seq % 7 * 300us after it is issued, with
    // an outcome cycling ok / degraded / failed / shed. In virtual
    // time every span is exact, and each phase's LoadResult is the
    // recount of the spans scheduled in it.
    sim::SimClock clock;
    ScopedClock ambient(clock);
    const int64_t phase_ns = 100'000'000;
    OpenLoopLoadGen::Options options;
    options.shape = loadgen::LoadShape::constant(1000.0);
    options.durationNs = 3 * phase_ns;
    options.phaseBounds = {0, phase_ns, 2 * phase_ns};
    const auto delay_of = [](uint64_t seq) {
        return int64_t(seq % 7) * 300'000;
    };
    const RequestOutcome outcomes[4] = {
        RequestOutcome(true), RequestOutcome(true, true),
        RequestOutcome(false), RequestOutcome::shedRequest()};
    OpenLoopLoadGen generator(options);
    const std::vector<LoadResult> phases = generator.run(
        [&](uint64_t seq, std::function<void(RequestOutcome)> done) {
            clock.schedule(delay_of(seq), [&outcomes, seq, done] {
                done(outcomes[seq % 4]);
            });
        });

    const std::vector<int64_t> schedule = loadgen::arrivalSchedule(
        options.shape, options.durationNs, options.seed);
    ASSERT_EQ(generator.spans().size(), schedule.size());
    ASSERT_EQ(phases.size(), 3u);
    std::vector<LoadResult> recount(3);
    int64_t last_completion = 0;
    for (uint64_t seq = 0; seq < schedule.size(); ++seq) {
        const RequestSpan &span = generator.spans()[seq];
        EXPECT_EQ(span.scheduledNs, schedule[seq]);
        EXPECT_EQ(span.issuedNs, span.scheduledNs);
        EXPECT_EQ(span.latencyNs(), delay_of(seq));
        EXPECT_EQ(span.outcome.degraded, outcomes[seq % 4].degraded);
        EXPECT_EQ(span.outcome.shed, outcomes[seq % 4].shed);
        LoadResult &load = recount[size_t(span.scheduledNs / phase_ns)];
        load.issued++;
        load.completed += span.outcome.ok ? 1 : 0;
        load.degraded += span.outcome.degraded ? 1 : 0;
        load.errors += span.outcome.ok ? 0 : 1;
        load.shed += span.outcome.shed ? 1 : 0;
        if (span.outcome.ok)
            load.latency.record(span.latencyNs());
        last_completion = std::max(last_completion, span.completedNs);
    }
    for (size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(phases[i].issued, recount[i].issued);
        EXPECT_EQ(phases[i].completed, recount[i].completed);
        EXPECT_EQ(phases[i].degraded, recount[i].degraded);
        EXPECT_EQ(phases[i].errors, recount[i].errors);
        EXPECT_EQ(phases[i].shed, recount[i].shed);
        EXPECT_EQ(phases[i].latency.toCsv(), recount[i].latency.toCsv());
    }
    // The last window ends at the later of the duration and the last
    // completion; the earlier ones end at the next bound.
    ASSERT_GT(last_completion, options.durationNs);
    EXPECT_EQ(phases[1].elapsedNs, phase_ns);
    EXPECT_EQ(phases[2].elapsedNs, last_completion - 2 * phase_ns);
}

TEST(LoadShapeTest, Constant)
{
    const auto shape = loadgen::LoadShape::constant(42.0);
    EXPECT_DOUBLE_EQ(shape.qpsAt(0), 42.0);
    EXPECT_DOUBLE_EQ(shape.qpsAt(2'500'000'000), 42.0);
    EXPECT_DOUBLE_EQ(shape.maxQps(), 42.0);
}

TEST(LoadShapeTest, FlashCrowdWindowIsHalfOpen)
{
    const auto shape = loadgen::LoadShape::flashCrowd(
        100.0, 500.0, 400'000'000, 200'000'000);
    EXPECT_DOUBLE_EQ(shape.qpsAt(0), 100.0);
    EXPECT_DOUBLE_EQ(shape.qpsAt(399'999'999), 100.0);
    EXPECT_DOUBLE_EQ(shape.qpsAt(400'000'000), 500.0);
    EXPECT_DOUBLE_EQ(shape.qpsAt(599'999'999), 500.0);
    EXPECT_DOUBLE_EQ(shape.qpsAt(600'000'000), 100.0);
    EXPECT_DOUBLE_EQ(shape.maxQps(), 500.0);
}

TEST(LoadShapeTest, DiurnalTroughAtZeroCrestAtHalfPeriod)
{
    const int64_t period = 2'000'000'000;
    const auto shape = loadgen::LoadShape::diurnal(100.0, 1000.0, period);
    EXPECT_DOUBLE_EQ(shape.qpsAt(0), 100.0);
    EXPECT_DOUBLE_EQ(shape.qpsAt(period / 2), 1000.0);
    EXPECT_NEAR(shape.qpsAt(period / 4), 550.0, 1e-6);
    EXPECT_DOUBLE_EQ(shape.qpsAt(period), 100.0);
    EXPECT_DOUBLE_EQ(shape.maxQps(), 1000.0);
}

TEST(LoadShapeTest, MaxQpsIsTheLargerRate)
{
    // A "crowd" below the baseline still keeps the baseline envelope.
    EXPECT_DOUBLE_EQ(
        loadgen::LoadShape::flashCrowd(300.0, 50.0, 0, 1000).maxQps(),
        300.0);
    EXPECT_DOUBLE_EQ(
        loadgen::LoadShape::diurnal(10.0, 90.0, 1000).maxQps(), 90.0);
}

TEST(LoadShapeTest, ArrivalScheduleIsSeededSortedAndInRange)
{
    const auto shape = loadgen::LoadShape::diurnal(200.0, 2000.0,
                                                   500'000'000);
    const int64_t duration = 1'000'000'000;
    const auto first = loadgen::arrivalSchedule(shape, duration, 3);
    const auto again = loadgen::arrivalSchedule(shape, duration, 3);
    const auto other = loadgen::arrivalSchedule(shape, duration, 4);

    ASSERT_FALSE(first.empty());
    EXPECT_EQ(first, again);
    EXPECT_NE(first, other);
    EXPECT_TRUE(std::is_sorted(first.begin(), first.end()));
    EXPECT_GE(first.front(), 0);
    EXPECT_LT(first.back(), duration);
}

} // namespace
} // namespace musuite
