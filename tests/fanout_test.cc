/**
 * @file
 * Tests for the mid-tier fan-out/merge helper: result ordering,
 * exactly-once completion, error legs, single-leg degenerate case,
 * completion from foreign threads, and the "last response thread
 * merges" property.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "base/queue.h"
#include "base/threading.h"
#include "services/common/fanout.h"

namespace musuite {
namespace {

/** Channel that answers inline with a transform of the body. */
class InlineChannel : public rpc::Channel
{
  public:
    explicit InlineChannel(std::string prefix = "ok:")
        : prefix(std::move(prefix))
    {}

  protected:
    void
    transportCall(uint32_t, std::string body, int64_t,
                  Callback callback) override
    {
        callback(Status::ok(), prefix + body);
    }

  private:
    std::string prefix;
};

/** Channel that always fails. */
class FailingChannel : public rpc::Channel
{
  protected:
    void
    transportCall(uint32_t, std::string, int64_t,
                  Callback callback) override
    {
        callback(Status(StatusCode::Unavailable, "down"), {});
    }
};

/** Channel that defers completion to a worker thread. */
class DeferredChannel : public rpc::Channel
{
  public:
    DeferredChannel()
        : worker("deferred", [this] {
              while (auto item = queue.pop())
                  (*item)();
          })
    {}

    ~DeferredChannel() override { queue.close(); }

  protected:
    void
    transportCall(uint32_t, std::string body, int64_t,
                  Callback callback) override
    {
        queue.push([body = std::move(body),
                    callback = std::move(callback)] {
            callback(Status::ok(), "deferred:" + body);
        });
    }

  private:
    BlockingQueue<std::function<void()>> queue;
    ScopedThread worker;
};

TEST(FanoutTest, ResultsArriveInRequestOrder)
{
    InlineChannel a("a:"), b("b:"), c("c:");
    std::vector<FanoutRequest> requests;
    requests.push_back({&a, "1", 0});
    requests.push_back({&b, "2", 1});
    requests.push_back({&c, "3", 2});

    std::vector<LeafResult> got;
    fanoutCall(7, std::move(requests), FanoutOptions{},
               [&](FanoutOutcome outcome) {
                   got = std::move(outcome.results);
               });
    ASSERT_EQ(got.size(), 3u);
    EXPECT_EQ(got[0].payload, "a:1");
    EXPECT_EQ(got[1].payload, "b:2");
    EXPECT_EQ(got[2].payload, "c:3");
}

TEST(FanoutTest, TagsArriveWithTheirResults)
{
    // Each result carries its request's tag, failed legs included, so
    // a merge can tell which leaf a payload came from.
    InlineChannel good;
    FailingChannel bad;
    std::vector<FanoutRequest> requests;
    requests.push_back({&good, "x", 7});
    requests.push_back({&bad, "y", 3});
    requests.push_back({&good, "z", 9});

    std::vector<LeafResult> got;
    fanoutCall(1, std::move(requests), FanoutOptions{},
               [&](FanoutOutcome outcome) {
                   got = std::move(outcome.results);
               });
    ASSERT_EQ(got.size(), 3u);
    EXPECT_EQ(got[0].tag, 7u);
    EXPECT_EQ(got[1].tag, 3u);
    EXPECT_FALSE(got[1].status.isOk());
    EXPECT_EQ(got[2].tag, 9u);
}

TEST(FanoutTest, SingleLeg)
{
    InlineChannel only;
    std::vector<FanoutRequest> requests;
    requests.push_back({&only, "solo", 0});
    int completions = 0;
    fanoutCall(1, std::move(requests), FanoutOptions{},
               [&](FanoutOutcome outcome) {
                   ++completions;
                   ASSERT_EQ(outcome.results.size(), 1u);
                   EXPECT_EQ(outcome.results[0].payload, "ok:solo");
               });
    EXPECT_EQ(completions, 1);
}

TEST(FanoutTest, ErrorLegsReportedPerLeg)
{
    InlineChannel good;
    FailingChannel bad;
    std::vector<FanoutRequest> requests;
    requests.push_back({&good, "x", 0});
    requests.push_back({&bad, "y", 1});
    requests.push_back({&good, "z", 2});

    std::vector<LeafResult> got;
    fanoutCall(1, std::move(requests), FanoutOptions{},
               [&](FanoutOutcome outcome) {
                   got = std::move(outcome.results);
               });
    ASSERT_EQ(got.size(), 3u);
    EXPECT_TRUE(got[0].status.isOk());
    EXPECT_EQ(got[1].status.code(), StatusCode::Unavailable);
    EXPECT_TRUE(got[2].status.isOk());
}

TEST(FanoutTest, CompletesExactlyOnceAcrossThreads)
{
    DeferredChannel deferred;
    InlineChannel inline_channel;

    for (int round = 0; round < 50; ++round) {
        std::vector<FanoutRequest> requests;
        requests.push_back({&deferred, "d", 0});
        requests.push_back({&inline_channel, "i", 1});
        requests.push_back({&deferred, "d2", 2});

        std::atomic<int> completions{0};
        CountdownLatch latch(1);
        fanoutCall(1, std::move(requests), FanoutOptions{},
                   [&](FanoutOutcome outcome) {
                       EXPECT_EQ(outcome.results.size(), 3u);
                       completions.fetch_add(1);
                       latch.countDown();
                   });
        latch.wait();
        EXPECT_EQ(completions.load(), 1);
    }
}

TEST(FanoutTest, MergeRunsOnLastRespondersThread)
{
    // With one inline leg and one deferred leg, the deferred leg
    // finishes last, so the merge must run on the deferred channel's
    // worker thread — not the caller's.
    DeferredChannel deferred;
    InlineChannel inline_channel;
    std::vector<FanoutRequest> requests;
    requests.push_back({&inline_channel, "first", 0});
    requests.push_back({&deferred, "last", 1});

    const std::thread::id caller = std::this_thread::get_id();
    std::thread::id merger;
    CountdownLatch latch(1);
    fanoutCall(1, std::move(requests), FanoutOptions{},
               [&](FanoutOutcome) {
                   merger = std::this_thread::get_id();
                   latch.countDown();
               });
    latch.wait();
    EXPECT_NE(merger, caller);
}

TEST(FanoutTest, MergeRunsInlineWhenAllLegsCompleteInline)
{
    // Documented threading contract: with channels that complete
    // synchronously (LocalChannel, or TCP failing fast), on_complete
    // runs inline on the caller's thread before fanoutCall returns.
    // Callers must not hold locks the merge also takes.
    InlineChannel good;
    FailingChannel bad;
    std::vector<FanoutRequest> requests;
    requests.push_back({&good, "x", 0});
    requests.push_back({&bad, "y", 1});

    const std::thread::id caller = std::this_thread::get_id();
    bool merged = false;
    fanoutCall(1, std::move(requests), FanoutOptions{},
               [&](FanoutOutcome outcome) {
                   EXPECT_EQ(std::this_thread::get_id(), caller);
                   EXPECT_EQ(outcome.results.size(), 2u);
                   merged = true;
               });
    EXPECT_TRUE(merged); // Completed before fanoutCall returned.
}

/** Channel that never answers (drops the callback). */
class BlackholeChannel : public rpc::Channel
{
  protected:
    void
    transportCall(uint32_t, std::string, int64_t, Callback) override
    {
    }
};

TEST(FanoutTest, QuorumCompletesWithoutStragglers)
{
    // One leg fails terminally, so once two OK answers are in hand
    // the parent completes early and abandons the blackholed leg
    // without waiting for its deadline.
    InlineChannel good;
    FailingChannel bad;
    BlackholeChannel dead;
    std::vector<FanoutRequest> requests;
    requests.push_back({&good, "a", 0});
    requests.push_back({&good, "b", 1});
    requests.push_back({&bad, "c", 2});
    requests.push_back({&dead, "d", 3});

    FanoutOptions options;
    options.quorum = 2; // Two of four legs suffice.
    FanoutOutcome got;
    bool merged = false;
    fanoutCall(1, std::move(requests), options,
               [&](FanoutOutcome outcome) {
                   got = std::move(outcome);
                   merged = true;
               });
    ASSERT_TRUE(merged);
    ASSERT_EQ(got.results.size(), 4u);
    EXPECT_TRUE(got.results[0].status.isOk());
    EXPECT_TRUE(got.results[1].status.isOk());
    EXPECT_EQ(got.results[2].status.code(), StatusCode::Unavailable);
    EXPECT_EQ(got.results[3].status.code(),
              StatusCode::DeadlineExceeded);
    EXPECT_EQ(got.okLegs, 2u);
    EXPECT_TRUE(got.degraded);
}

TEST(FanoutTest, QuorumDoesNotAbandonHealthyLegs)
{
    // All legs answer OK: even with a quorum of one, the parent waits
    // for every leg — early completion requires an observed failure.
    InlineChannel good;
    std::vector<FanoutRequest> requests;
    requests.push_back({&good, "a", 0});
    requests.push_back({&good, "b", 1});
    requests.push_back({&good, "c", 2});

    FanoutOptions options;
    options.quorum = 1;
    FanoutOutcome got;
    fanoutCall(1, std::move(requests), options,
               [&](FanoutOutcome outcome) { got = std::move(outcome); });
    EXPECT_EQ(got.okLegs, 3u);
    EXPECT_FALSE(got.degraded);
    for (const LeafResult &result : got.results)
        EXPECT_TRUE(result.status.isOk());
}

TEST(FanoutTest, QuorumEqualToLegsIsNotDegraded)
{
    InlineChannel good;
    std::vector<FanoutRequest> requests;
    requests.push_back({&good, "a", 0});
    requests.push_back({&good, "b", 1});

    FanoutOptions options;
    options.quorum = 2; // Same as the leg count: wait for all.
    FanoutOutcome got;
    fanoutCall(1, std::move(requests), options,
               [&](FanoutOutcome outcome) { got = std::move(outcome); });
    EXPECT_EQ(got.okLegs, 2u);
    EXPECT_FALSE(got.degraded);
}

TEST(FanoutTest, WideFanout)
{
    InlineChannel shared;
    std::vector<FanoutRequest> requests;
    for (uint32_t i = 0; i < 64; ++i)
        requests.push_back({&shared, std::to_string(i), i});
    std::vector<LeafResult> got;
    fanoutCall(1, std::move(requests), FanoutOptions{},
               [&](FanoutOutcome outcome) {
                   got = std::move(outcome.results);
               });
    ASSERT_EQ(got.size(), 64u);
    for (uint32_t i = 0; i < 64; ++i)
        EXPECT_EQ(got[i].payload, "ok:" + std::to_string(i));
}

} // namespace
} // namespace musuite
