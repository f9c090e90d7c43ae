/**
 * @file
 * Tests for the overload-control layer: the gradient admission
 * controller, bounded-queue shedding, admission rejects with their
 * retry-after hint on every entry path, the same station on virtual
 * worker slots under a SimClock with admission in virtual time, and
 * the goodput accounting the overload bench reports.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <vector>

#include "base/clock.h"
#include "base/queue.h"
#include "base/threading.h"
#include "base/time_util.h"
#include "loadgen/loadgen.h"
#include "rpc/client.h"
#include "rpc/overload.h"
#include "rpc/server.h"
#include "simkernel/simclock.h"
#include "stats/counters.h"
#include "stats/histogram.h"

namespace musuite {
namespace rpc {
namespace {

constexpr uint32_t kEcho = 1;
constexpr uint32_t kSlow = 2;
constexpr uint32_t kCounted = 3;

// ---------------------------------------------------------------------
// Admission controllers.
// ---------------------------------------------------------------------

TEST(AdmissionTest, GradientTracksInflightAndLimit)
{
    GradientAdmission::Options options;
    options.initialLimit = 2.0;
    GradientAdmission admission(options);
    EXPECT_TRUE(admission.admit());
    EXPECT_TRUE(admission.admit());
    EXPECT_FALSE(admission.admit()); // Limit 2 reached.
    EXPECT_EQ(admission.inflight(), 2u);
    admission.onAdmittedComplete(1000);
    EXPECT_EQ(admission.inflight(), 1u);
    EXPECT_TRUE(admission.admit()); // Slot freed.
    admission.onAdmittedDropped(); // Dropped: no latency sample.
    admission.onAdmittedComplete(1000);
    EXPECT_EQ(admission.inflight(), 0u);
}

TEST(AdmissionTest, GradientShrinksOnQueueingGrowsWhenIdle)
{
    GradientAdmission::Options options;
    options.initialLimit = 8.0;
    options.tolerance = 2.0;
    options.rttWindow = 1000; // Keep minRtt at the first-sample floor.
    GradientAdmission admission(options);

    // Establish minRtt = 1000 ns, then feed queueing samples (far
    // above tolerance x minRtt): multiplicative decrease kicks in.
    ASSERT_TRUE(admission.admit());
    admission.onAdmittedComplete(1000);
    EXPECT_EQ(admission.minRttNs(), 1000);
    const double before = admission.currentLimit();
    for (int i = 0; i < 20; ++i) {
        ASSERT_TRUE(admission.admit());
        admission.onAdmittedComplete(50'000);
    }
    const double shrunk = admission.currentLimit();
    EXPECT_LT(shrunk, before * 0.8);

    // Fast samples again: additive increase creeps the limit back up.
    for (int i = 0; i < 20; ++i) {
        ASSERT_TRUE(admission.admit());
        admission.onAdmittedComplete(1000);
    }
    EXPECT_GT(admission.currentLimit(), shrunk);
}

TEST(AdmissionTest, GradientRetryAfterScalesWithInflight)
{
    GradientAdmission admission;
    EXPECT_EQ(admission.retryAfterHintNs(), 0); // No RTT estimate yet.
    ASSERT_TRUE(admission.admit());
    admission.onAdmittedComplete(2000);
    ASSERT_TRUE(admission.admit());
    ASSERT_TRUE(admission.admit());
    // minRtt 2000, two inflight: hint = 2000 * (2 + 1).
    EXPECT_EQ(admission.retryAfterHintNs(), 6000);
}

// ---------------------------------------------------------------------
// Bounded queue building block.
// ---------------------------------------------------------------------

TEST(BoundedQueueTest, TryPushAllReturnsTheOverflow)
{
    BlockingQueue<int> queue(3);
    std::vector<int> leftover = queue.tryPushAll({1, 2, 3, 4, 5});
    ASSERT_EQ(leftover.size(), 2u);
    EXPECT_EQ(leftover[0], 4); // Order preserved.
    EXPECT_EQ(leftover[1], 5);
    EXPECT_EQ(queue.size(), 3u);
    std::optional<int> out = queue.pop();
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(*out, 1); // FIFO order survives the partial push.
    EXPECT_TRUE(queue.tryPush(9)); // Room again.
}

TEST(BoundedQueueTest, TryPushRejectsWhenFull)
{
    BlockingQueue<int> queue(1);
    EXPECT_TRUE(queue.tryPush(1));
    EXPECT_FALSE(queue.tryPush(2));
    ASSERT_TRUE(queue.pop().has_value());
    EXPECT_TRUE(queue.tryPush(3));
}

// ---------------------------------------------------------------------
// Histogram / breakdown plumbing used by the goodput reports.
// ---------------------------------------------------------------------

TEST(GoodputStatsTest, CountAtOrBelowWalksTheBuckets)
{
    Histogram histogram;
    EXPECT_EQ(histogram.countAtOrBelow(100), 0u); // Empty.
    for (int64_t v : {10, 20, 30, 1000, 5000})
        histogram.record(v);
    EXPECT_EQ(histogram.countAtOrBelow(-1), 0u);
    EXPECT_EQ(histogram.countAtOrBelow(30), 3u);
    EXPECT_EQ(histogram.countAtOrBelow(999'999), 5u); // >= max.
    EXPECT_GE(histogram.countAtOrBelow(1000), 3u);
}

TEST(GoodputStatsTest, BreakdownRates)
{
    ShedAcceptBreakdown breakdown;
    breakdown.offered = 100;
    breakdown.completed = 70;
    breakdown.shed = 25;
    breakdown.failed = 5;
    breakdown.goodput = 63;
    EXPECT_DOUBLE_EQ(breakdown.shedRate(), 0.25);
    EXPECT_DOUBLE_EQ(breakdown.goodputRate(), 0.63);
    EXPECT_NE(breakdown.toString().find("shed=25"), std::string::npos);
}

TEST(GoodputStatsTest, LoadResultSeparatesShedsFromFailures)
{
    LoadResult result;
    result.issued = 10;
    result.completed = 6;
    result.errors = 4;
    result.shed = 3;
    for (int64_t v : {100, 100, 100, 100, 900, 900})
        result.latency.record(v);
    const ShedAcceptBreakdown breakdown = result.breakdown(500);
    EXPECT_EQ(breakdown.offered, 10u);
    EXPECT_EQ(breakdown.shed, 3u);
    EXPECT_EQ(breakdown.failed, 1u);
    EXPECT_EQ(breakdown.goodput, 4u);
    EXPECT_EQ(result.goodputCount(0), 6u); // No deadline: completions.
}

// ---------------------------------------------------------------------
// Server-side shedding: admission rejects and bounded-queue overflow.
// ---------------------------------------------------------------------

std::unique_ptr<Server>
makeEchoServer(ServerOptions options = {})
{
    auto server = std::make_unique<Server>(options);
    server->registerHandler(kEcho, [](ServerCallPtr call) {
        call->respondOk(call->body());
    });
    server->start();
    return server;
}

/** Sheds every request with a fixed retry-after (0 = no estimate):
 *  drives the entry path's admission-reject branch. */
class RejectAllAdmission : public AdmissionController
{
  public:
    explicit RejectAllAdmission(int64_t hint_ns = 0) : hintNs(hint_ns) {}
    bool admit() override { return false; }
    int64_t retryAfterHintNs() const override { return hintNs; }

  private:
    int64_t hintNs;
};

TEST(ServerSheddingTest, AdmissionRejectCarriesRetryAfter)
{
    // A controller without an estimate gets the server's default hint.
    ServerOptions options;
    options.admission = std::make_shared<RejectAllAdmission>();
    auto server = makeEchoServer(options);
    RpcClient client(server->port());

    const uint64_t before =
        globalCounters().counter("overload.admission_rejected").get();
    auto result = client.callSync(kEcho, "x");
    ASSERT_FALSE(result.isOk());
    EXPECT_EQ(result.status().code(), StatusCode::ResourceExhausted);
    EXPECT_EQ(result.status().retryAfterNs(), kDefaultRetryAfterNs);
    EXPECT_GT(globalCounters().counter("overload.admission_rejected").get(),
              before);
}

TEST(ServerSheddingTest, LocalCallsConsultAdmission)
{
    // The LocalChannel path (an unstarted server on the real clock)
    // takes the same entry as the wire: the handler never runs.
    ServerOptions options;
    options.admission = std::make_shared<RejectAllAdmission>(3'000'000);
    Server server(options);
    int runs = 0;
    server.registerHandler(kCounted, [&runs](ServerCallPtr call) {
        ++runs;
        call->respondOk("");
    });
    const uint64_t before =
        globalCounters().counter("overload.admission_rejected").get();
    StatusCode code = StatusCode::Ok;
    int64_t hint = 0;
    server.invokeLocal(kCounted, "",
                       [&](StatusCode code_in, std::string_view,
                           int64_t retry_after_ns) {
                           code = code_in;
                           hint = retry_after_ns;
                       });
    EXPECT_EQ(code, StatusCode::ResourceExhausted);
    EXPECT_EQ(hint, 3'000'000);
    EXPECT_EQ(runs, 0);
    EXPECT_EQ(globalCounters().counter("overload.admission_rejected").get(),
              before + 1);
}

TEST(ServerSheddingTest, FullTaskQueueShedsInsteadOfBlocking)
{
    ServerOptions options;
    options.workerThreads = 1;
    options.queueCapacity = 1;
    auto server = std::make_unique<Server>(options);
    server->registerHandler(kSlow, [](ServerCallPtr call) {
        sleepForNanos(50'000'000);
        call->respondOk("");
    });
    server->start();
    RpcClient client(server->port());

    const uint64_t before =
        globalCounters().counter("overload.queue_rejected").get();
    std::atomic<int> ok{0}, shed{0}, other{0};
    CountdownLatch latch(6);
    for (int i = 0; i < 6; ++i) {
        client.call(kSlow, "",
                    [&](const Status &status, std::string_view) {
                        if (status.isOk())
                            ok.fetch_add(1);
                        else if (status.code() ==
                                 StatusCode::ResourceExhausted)
                            shed.fetch_add(1);
                        else
                            other.fetch_add(1);
                        latch.countDown();
                    });
    }
    latch.wait();
    // Whatever fits (at least the one queue slot) executes; the rest
    // are shed with an explicit RESOURCE_EXHAUSTED, never an unbounded
    // wait and never a silent drop. How many fit depends on whether
    // the burst lands in one poller drain or several.
    EXPECT_GE(ok.load(), 1);
    EXPECT_GE(shed.load(), 3);
    EXPECT_EQ(other.load(), 0);
    EXPECT_GT(globalCounters().counter("overload.queue_rejected").get(),
              before);
}

TEST(ServerSheddingTest, BudgetPropagatesAndFreshRequestsExecute)
{
    // The wire budget reaches the handler as its remaining budget, and
    // a fresh request runs and succeeds.
    ServerOptions options;
    options.workerThreads = 1;
    auto server = std::make_unique<Server>(options);
    std::atomic<int> counted_runs{0};
    server->registerHandler(kCounted, [&](ServerCallPtr call) {
        counted_runs.fetch_add(1);
        EXPECT_GT(call->remainingBudgetNs(), 0);
        call->respondOk("");
    });
    server->start();
    RpcClient client(server->port());

    CallOptions call_options;
    call_options.deadlineNs = 100'000'000;
    auto result = client.callSync(kCounted, "", call_options);
    ASSERT_TRUE(result.isOk());
    EXPECT_EQ(counted_runs.load(), 1);
}

// ---------------------------------------------------------------------
// The virtual-time station: an unstarted server on a SimClock, driven
// through invokeLocal the way SimChannel delivers requests.
// ---------------------------------------------------------------------

/** What one invokeLocal caller saw, and when. */
struct StationReply
{
    bool done = false;
    StatusCode code = StatusCode::Ok;
    int64_t retryAfterNs = 0;
    int64_t atNs = -1;
};

class StationTest : public ::testing::Test
{
  protected:
    /** One worker, `queue_capacity` queue slots, 100 us of service
     *  per request; records the virtual instant each handler runs. */
    std::unique_ptr<Server>
    makeStation(int64_t service_ns = 100'000,
                std::shared_ptr<AdmissionController> admission = nullptr,
                size_t queue_capacity = 1)
    {
        ServerOptions options;
        options.workerThreads = 1;
        options.queueCapacity = queue_capacity;
        options.serviceNs = service_ns;
        options.admission = std::move(admission);
        auto server = std::make_unique<Server>(options);
        server->registerHandler(kCounted, [this](ServerCallPtr call) {
            handlerRanAt.push_back(clock.nowNanos());
            call->respondOk("");
        });
        return server;
    }

    void
    arrive(Server &server, StationReply &reply)
    {
        server.invokeLocal(kCounted, "",
                           [this, &reply](StatusCode code,
                                          std::string_view,
                                          int64_t retry_after_ns) {
                               reply = {true, code, retry_after_ns,
                                        clock.nowNanos()};
                           });
    }

    sim::SimClock clock;
    ScopedClock ambient{clock};
    std::vector<int64_t> handlerRanAt;
};

TEST_F(StationTest, QueuesOnTheSlotThenShedsWithTheDrainTime)
{
    auto server = makeStation();
    const uint64_t rejected_before =
        globalCounters().counter("overload.queue_rejected").get();
    StationReply first, second, third;
    arrive(*server, first);
    arrive(*server, second);
    arrive(*server, third);

    // The third arrival finds the worker and the queue slot taken: it
    // is shed at t=0, and its hint is when the slot drains (200 us)
    // plus one service time.
    ASSERT_TRUE(third.done);
    EXPECT_EQ(third.code, StatusCode::ResourceExhausted);
    EXPECT_EQ(third.retryAfterNs, 300'000);
    EXPECT_EQ(third.atNs, 0);
    EXPECT_EQ(globalCounters().counter("overload.queue_rejected").get(),
              rejected_before + 1);
    EXPECT_FALSE(first.done);
    EXPECT_TRUE(handlerRanAt.empty());

    clock.runUntilIdle();
    EXPECT_EQ(handlerRanAt, (std::vector<int64_t>{100'000, 200'000}));
    EXPECT_EQ(first.code, StatusCode::Ok);
    EXPECT_EQ(first.atNs, 100'000);
    EXPECT_EQ(second.code, StatusCode::Ok);
    EXPECT_EQ(second.atNs, 200'000);
    EXPECT_EQ(clock.pendingTimers(), 0u);
}

TEST_F(StationTest, AdmissionRejectShedsBeforeTheStation)
{
    auto server =
        makeStation(100'000, std::make_shared<RejectAllAdmission>(42'000));
    const uint64_t rejected_before =
        globalCounters().counter("overload.admission_rejected").get();
    StationReply reply;
    arrive(*server, reply);
    // Shed at arrival with the controller's hint; no slot, no timer.
    ASSERT_TRUE(reply.done);
    EXPECT_EQ(reply.code, StatusCode::ResourceExhausted);
    EXPECT_EQ(reply.retryAfterNs, 42'000);
    EXPECT_EQ(reply.atNs, 0);
    EXPECT_EQ(globalCounters().counter("overload.admission_rejected").get(),
              rejected_before + 1);
    EXPECT_EQ(clock.pendingTimers(), 0u);
    EXPECT_TRUE(handlerRanAt.empty());
}

TEST_F(StationTest, AdmittedCallsFeedVirtualResidenceBack)
{
    // Eight arrivals at t=0 queue on one 100 us worker: residences of
    // 100..800 us against a 100 us floor read as queueing, so the
    // limiter shrinks and ends with nothing in flight.
    GradientAdmission::Options gradient;
    gradient.initialLimit = 8.0;
    gradient.tolerance = 2.0;
    auto admission = std::make_shared<GradientAdmission>(gradient);
    auto server = makeStation(100'000, admission, 16);
    std::vector<StationReply> replies(8);
    for (StationReply &reply : replies)
        arrive(*server, reply);
    EXPECT_EQ(admission->inflight(), 8u);
    clock.runUntilIdle();
    for (const StationReply &reply : replies)
        EXPECT_EQ(reply.code, StatusCode::Ok);
    EXPECT_EQ(admission->inflight(), 0u);
    EXPECT_EQ(admission->minRttNs(), 100'000);
    EXPECT_LT(admission->currentLimit(), 8.0);
}

TEST_F(StationTest, ZeroServiceTimeRunsTheHandlerInline)
{
    auto server = makeStation(0);
    StationReply reply;
    arrive(*server, reply);
    // Answered before invokeLocal returned: no station, no timer.
    ASSERT_TRUE(reply.done);
    EXPECT_EQ(reply.code, StatusCode::Ok);
    EXPECT_EQ(handlerRanAt, (std::vector<int64_t>{0}));
    EXPECT_EQ(clock.pendingTimers(), 0u);
}

} // namespace
} // namespace rpc
} // namespace musuite
