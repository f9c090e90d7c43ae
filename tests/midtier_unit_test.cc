/**
 * @file
 * Unit tests of the four mid-tiers and GraphNode in isolation, using
 * scripted fake downstream channels: degraded merges when legs fail or
 * return garbage, full-outage error propagation, and request-path
 * routing decisions — without sockets, so every failure mode is
 * exactly controllable.
 */

#include <gtest/gtest.h>

#include <memory>

#include "base/clock.h"
#include "index/lsh.h"
#include "rpc/health.h"
#include "rpc/server.h"
#include "services/graph/node.h"
#include "services/graph/proto.h"
#include "services/hdsearch/midtier.h"
#include "services/hdsearch/proto.h"
#include "services/recommend/midtier.h"
#include "services/recommend/proto.h"
#include "services/router/midtier.h"
#include "services/router/proto.h"
#include "services/setalgebra/midtier.h"
#include "services/setalgebra/proto.h"
#include "simkernel/simclock.h"
#include "stats/counters.h"

namespace musuite {
namespace {

/** A scripted leaf: replies with a fixed payload, error, shed (with a
 *  retry-after pacing hint), or garbage — inline, or `delayNs` later on
 *  the channel's clock. */
class ScriptedChannel : public rpc::Channel
{
  public:
    enum class Mode { Reply, Error, Shed, Garbage };

    explicit ScriptedChannel(Mode mode, std::string payload = "",
                             int64_t retry_after_ns = 0)
        : mode(mode), payload(std::move(payload)),
          retryAfterNs(retry_after_ns)
    {}

    int calls = 0;
    /** The wire budget of every attempt, in call order. */
    std::vector<int64_t> budgets;
    int64_t delayNs = 0;

  protected:
    void
    transportCall(uint32_t, std::string, int64_t budget_ns,
                  Callback callback) override
    {
        ++calls;
        budgets.push_back(budget_ns);
        if (delayNs > 0) {
            clock().schedule(delayNs, [this, callback] { answer(callback); });
            return;
        }
        answer(callback);
    }

  private:
    void
    answer(const Callback &callback)
    {
        switch (mode) {
          case Mode::Reply:
            callback(Status::ok(), payload);
            return;
          case Mode::Error:
            callback(Status(StatusCode::Unavailable, "scripted"), {});
            return;
          case Mode::Shed: {
            Status status(StatusCode::ResourceExhausted, "scripted");
            status.setRetryAfterNs(retryAfterNs);
            callback(status, {});
            return;
          }
          case Mode::Garbage:
            callback(Status::ok(), "\x80\xFF\x01garbage");
            return;
        }
    }

    Mode mode;
    std::string payload;
    int64_t retryAfterNs;
};

/** Capture a mid-tier's response synchronously via invokeLocal-style
 *  responder plumbing. */
struct CapturedResponse
{
    StatusCode code = StatusCode::Internal;
    std::string payload;
    int64_t retryAfterNs = 0;
    bool responded = false;
};

// --------------------------------------------------------------------
// Set Algebra mid-tier.
// --------------------------------------------------------------------

std::string
postingPayload(std::vector<uint32_t> docs)
{
    setalgebra::PostingReply reply;
    reply.docIds = std::move(docs);
    return encodeMessage(reply);
}

TEST(SetAlgebraMidTierTest, UnionsHealthyLeaves)
{
    auto a = std::make_shared<ScriptedChannel>(
        ScriptedChannel::Mode::Reply, postingPayload({1, 5}));
    auto b = std::make_shared<ScriptedChannel>(
        ScriptedChannel::Mode::Reply, postingPayload({2, 5, 9}));
    setalgebra::MidTier midtier({a, b});

    setalgebra::SearchQuery query;
    query.terms = {7};
    CapturedResponse out;
    rpc::Server host; // Unstarted: handler invoked directly.
    midtier.registerWith(host);
    host.invokeLocal(setalgebra::kSearch, encodeMessage(query),
                     [&out](StatusCode code, std::string_view payload,
                            int64_t retry_after) {
                         out.code = code;
                         out.payload.assign(payload.data(),
                                            payload.size());
                         out.retryAfterNs = retry_after;
                         out.responded = true;
                     });

    ASSERT_TRUE(out.responded);
    EXPECT_EQ(out.code, StatusCode::Ok);
    setalgebra::PostingReply merged;
    ASSERT_TRUE(decodeMessage(out.payload, merged));
    EXPECT_EQ(merged.docIds, (std::vector<uint32_t>{1, 2, 5, 9}));
    EXPECT_EQ(a->calls, 1);
    EXPECT_EQ(b->calls, 1);
}

TEST(SetAlgebraMidTierTest, DegradedWhenOneLeafFailsOrGarbles)
{
    auto good = std::make_shared<ScriptedChannel>(
        ScriptedChannel::Mode::Reply, postingPayload({3, 4}));
    auto dead = std::make_shared<ScriptedChannel>(
        ScriptedChannel::Mode::Error);
    auto garbled = std::make_shared<ScriptedChannel>(
        ScriptedChannel::Mode::Garbage);
    setalgebra::MidTier midtier({good, dead, garbled});

    setalgebra::SearchQuery query;
    query.terms = {1};
    CapturedResponse out;
    rpc::Server host;
    midtier.registerWith(host);
    host.invokeLocal(setalgebra::kSearch, encodeMessage(query),
                     [&out](StatusCode code, std::string_view payload,
                            int64_t retry_after) {
                         out.code = code;
                         out.payload.assign(payload.data(),
                                            payload.size());
                         out.retryAfterNs = retry_after;
                         out.responded = true;
                     });

    ASSERT_TRUE(out.responded);
    // Degraded but successful: the healthy shard's results survive.
    EXPECT_EQ(out.code, StatusCode::Ok);
    setalgebra::PostingReply merged;
    ASSERT_TRUE(decodeMessage(out.payload, merged));
    EXPECT_EQ(merged.docIds, (std::vector<uint32_t>{3, 4}));
}

// --------------------------------------------------------------------
// Recommend mid-tier.
// --------------------------------------------------------------------

std::string
ratingPayload(double rating)
{
    recommend::RatingReply reply;
    reply.rating = rating;
    return encodeMessage(reply);
}

TEST(RecommendMidTierTest, AveragesOnlyHealthyLeaves)
{
    auto a = std::make_shared<ScriptedChannel>(
        ScriptedChannel::Mode::Reply, ratingPayload(4.0));
    auto b = std::make_shared<ScriptedChannel>(
        ScriptedChannel::Mode::Reply, ratingPayload(2.0));
    auto dead = std::make_shared<ScriptedChannel>(
        ScriptedChannel::Mode::Error);
    recommend::MidTier midtier({a, b, dead});

    recommend::RatingQuery query{1, 2};
    CapturedResponse out;
    rpc::Server host;
    midtier.registerWith(host);
    host.invokeLocal(recommend::kPredict, encodeMessage(query),
                     [&out](StatusCode code, std::string_view payload,
                            int64_t retry_after) {
                         out.code = code;
                         out.payload.assign(payload.data(),
                                            payload.size());
                         out.retryAfterNs = retry_after;
                         out.responded = true;
                     });

    ASSERT_TRUE(out.responded);
    EXPECT_EQ(out.code, StatusCode::Ok);
    recommend::RatingReply reply;
    ASSERT_TRUE(decodeMessage(out.payload, reply));
    EXPECT_DOUBLE_EQ(reply.rating, 3.0); // Mean of 4 and 2.
}

TEST(RecommendMidTierTest, TotalOutageIsUnavailable)
{
    auto dead1 = std::make_shared<ScriptedChannel>(
        ScriptedChannel::Mode::Error);
    auto dead2 = std::make_shared<ScriptedChannel>(
        ScriptedChannel::Mode::Error);
    recommend::MidTier midtier({dead1, dead2});

    recommend::RatingQuery query{0, 0};
    CapturedResponse out;
    rpc::Server host;
    midtier.registerWith(host);
    host.invokeLocal(recommend::kPredict, encodeMessage(query),
                     [&out](StatusCode code, std::string_view payload,
                            int64_t retry_after) {
                         out.code = code;
                         out.payload.assign(payload.data(),
                                            payload.size());
                         out.retryAfterNs = retry_after;
                         out.responded = true;
                     });
    ASSERT_TRUE(out.responded);
    EXPECT_EQ(out.code, StatusCode::Unavailable);
}

// --------------------------------------------------------------------
// Router mid-tier.
// --------------------------------------------------------------------

std::string
kvFound(const std::string &value)
{
    router::KvReply reply;
    reply.found = true;
    reply.value = value;
    return encodeMessage(reply);
}

TEST(RouterMidTierTest, SetSucceedsIfAnyReplicaStores)
{
    std::vector<std::shared_ptr<rpc::Channel>> leaves;
    std::vector<std::shared_ptr<ScriptedChannel>> scripted;
    for (int i = 0; i < 4; ++i) {
        auto leaf = std::make_shared<ScriptedChannel>(
            i == 0 ? ScriptedChannel::Mode::Reply
                   : ScriptedChannel::Mode::Error,
            kvFound(""));
        scripted.push_back(leaf);
        leaves.push_back(leaf);
    }
    router::MidTierOptions options;
    options.replicas = 4; // All leaves in every pool.
    router::MidTier midtier(leaves, options);

    router::KvRequest request;
    request.op = router::Op::Set;
    request.key = "k";
    request.value = "v";
    CapturedResponse out;
    rpc::Server host;
    midtier.registerWith(host);
    host.invokeLocal(router::kRoute, encodeMessage(request),
                     [&out](StatusCode code, std::string_view payload,
                            int64_t retry_after) {
                         out.code = code;
                         out.payload.assign(payload.data(),
                                            payload.size());
                         out.retryAfterNs = retry_after;
                         out.responded = true;
                     });
    ASSERT_TRUE(out.responded);
    EXPECT_EQ(out.code, StatusCode::Ok);
}

TEST(RouterMidTierTest, SetFailsWhenNoReplicaStores)
{
    std::vector<std::shared_ptr<rpc::Channel>> leaves;
    for (int i = 0; i < 3; ++i) {
        leaves.push_back(std::make_shared<ScriptedChannel>(
            ScriptedChannel::Mode::Error));
    }
    router::MidTier midtier(leaves);

    router::KvRequest request;
    request.op = router::Op::Set;
    request.key = "k";
    request.value = "v";
    CapturedResponse out;
    rpc::Server host;
    midtier.registerWith(host);
    host.invokeLocal(router::kRoute, encodeMessage(request),
                     [&out](StatusCode code, std::string_view payload,
                            int64_t retry_after) {
                         out.code = code;
                         out.payload.assign(payload.data(),
                                            payload.size());
                         out.retryAfterNs = retry_after;
                         out.responded = true;
                     });
    ASSERT_TRUE(out.responded);
    EXPECT_EQ(out.code, StatusCode::Unavailable);
}

TEST(RouterMidTierTest, GetExhaustsReplicasThenFails)
{
    std::vector<std::shared_ptr<ScriptedChannel>> scripted;
    std::vector<std::shared_ptr<rpc::Channel>> leaves;
    for (int i = 0; i < 3; ++i) {
        auto leaf = std::make_shared<ScriptedChannel>(
            ScriptedChannel::Mode::Error);
        scripted.push_back(leaf);
        leaves.push_back(leaf);
    }
    router::MidTier midtier(leaves);

    router::KvRequest request;
    request.op = router::Op::Get;
    request.key = "k";
    CapturedResponse out;
    rpc::Server host;
    midtier.registerWith(host);
    host.invokeLocal(router::kRoute, encodeMessage(request),
                     [&out](StatusCode code, std::string_view payload,
                            int64_t retry_after) {
                         out.code = code;
                         out.payload.assign(payload.data(),
                                            payload.size());
                         out.retryAfterNs = retry_after;
                         out.responded = true;
                     });
    ASSERT_TRUE(out.responded);
    EXPECT_EQ(out.code, StatusCode::Unavailable);
    // Every replica in the pool was attempted exactly once.
    int attempts = 0;
    for (const auto &leaf : scripted)
        attempts += leaf->calls;
    EXPECT_EQ(attempts, 3);
    EXPECT_EQ(midtier.failovers(), 2u);
}

TEST(RouterMidTierTest, FailoverAttemptGetsOnlyTheBudgetLeft)
{
    // Per-hop budget decrement on the failover walk: the first replica
    // fails kDelay into an inbound budget of kBudget, so the second
    // replica must be promised exactly what is left, never the budget
    // as received.
    sim::SimClock clock;
    ScopedClock scoped(clock);
    constexpr int64_t kBudget = 50'000'000;
    constexpr int64_t kDelay = 7'000'000;
    router::MidTierOptions options;
    options.replicas = 2;
    options.seed = 0; // The first get starts at pool[0].
    router::KvRequest request;
    request.op = router::Op::Get;
    request.key = "k";
    // A routing-only mid-tier over placeholder channels names the
    // replica the walk tries first.
    const uint32_t first =
        router::MidTier(std::vector<std::shared_ptr<rpc::Channel>>(2),
                        options)
            .replicaPool(request.key)[0];

    auto failing =
        std::make_shared<ScriptedChannel>(ScriptedChannel::Mode::Error);
    failing->delayNs = kDelay;
    auto healthy = std::make_shared<ScriptedChannel>(
        ScriptedChannel::Mode::Reply, kvFound("v"));
    std::vector<std::shared_ptr<rpc::Channel>> leaves(2);
    leaves[first] = failing;
    leaves[1 - first] = healthy;
    router::MidTier midtier(leaves, options);

    CapturedResponse out;
    rpc::Server host;
    midtier.registerWith(host);
    host.invokeLocal(router::kRoute, encodeMessage(request), kBudget,
                     [&out](StatusCode code, std::string_view payload,
                            int64_t retry_after) {
                         out.code = code;
                         out.payload.assign(payload.data(),
                                            payload.size());
                         out.retryAfterNs = retry_after;
                         out.responded = true;
                     });
    clock.runUntilIdle();

    ASSERT_TRUE(out.responded);
    EXPECT_EQ(out.code, StatusCode::Ok);
    EXPECT_EQ(failing->budgets, std::vector<int64_t>{kBudget});
    EXPECT_EQ(healthy->budgets, std::vector<int64_t>{kBudget - kDelay});
    EXPECT_EQ(midtier.failovers(), 1u);
}

// --------------------------------------------------------------------
// HDSearch mid-tier.
// --------------------------------------------------------------------

TEST(HdSearchMidTierTest, DegradedMergeSkipsBrokenLeaves)
{
    // An LSH index whose buckets are so wide that both leaves are
    // always candidates.
    LshParams params;
    params.numTables = 2;
    params.hashesPerTable = 2;
    params.bucketWidth = 1000.0f;
    auto index = std::make_unique<LshIndex>(4, params);
    const std::vector<float> point(4, 0.5f);
    index->insert(point, {0, 0});
    index->insert(point, {1, 0});

    hdsearch::LeafNNResponse healthy_response;
    healthy_response.pointIds = {0};
    healthy_response.distances = {0.25f};
    auto healthy = std::make_shared<ScriptedChannel>(
        ScriptedChannel::Mode::Reply,
        encodeMessage(healthy_response));
    auto broken = std::make_shared<ScriptedChannel>(
        ScriptedChannel::Mode::Garbage);

    hdsearch::MidTier midtier(std::move(index), {healthy, broken});

    hdsearch::NNQuery query;
    query.features = point;
    query.k = 2;
    CapturedResponse out;
    rpc::Server host;
    midtier.registerWith(host);
    host.invokeLocal(hdsearch::kNearestNeighbors,
                     encodeMessage(query),
                     [&out](StatusCode code, std::string_view payload,
                            int64_t retry_after) {
                         out.code = code;
                         out.payload.assign(payload.data(),
                                            payload.size());
                         out.retryAfterNs = retry_after;
                         out.responded = true;
                     });

    ASSERT_TRUE(out.responded);
    EXPECT_EQ(out.code, StatusCode::Ok);
    hdsearch::NNResponse response;
    ASSERT_TRUE(decodeMessage(out.payload, response));
    ASSERT_EQ(response.pointIds.size(), 1u); // Only the healthy leaf.
    EXPECT_EQ(response.pointIds[0], hdsearch::globalPointId(0, 0));
}

// --------------------------------------------------------------------
// Multi-hop propagation contract (the three deep-DAG fixes), pinned at
// the unit level: a "leaf" channel scripted to behave like a
// downstream *mid-tier* — answering degraded, or shedding with a
// retry-after hint — must have that state survive this hop.
// --------------------------------------------------------------------

TEST(SetAlgebraMidTierTest, DownstreamDegradedFlagIsOredThrough)
{
    // Both shards answer OK, but one is itself a mid-tier that merged
    // a partial result. Before the fix this hop reported
    // degraded=false upstream because its own quorum was healthy.
    setalgebra::PostingReply degraded_reply;
    degraded_reply.docIds = {8};
    degraded_reply.degraded = true;
    auto healthy = std::make_shared<ScriptedChannel>(
        ScriptedChannel::Mode::Reply, postingPayload({1}));
    auto degraded_mid = std::make_shared<ScriptedChannel>(
        ScriptedChannel::Mode::Reply, encodeMessage(degraded_reply));
    setalgebra::MidTier midtier({healthy, degraded_mid});

    setalgebra::SearchQuery query;
    query.terms = {1};
    CapturedResponse out;
    rpc::Server host;
    midtier.registerWith(host);
    host.invokeLocal(setalgebra::kSearch, encodeMessage(query),
                     [&out](StatusCode code, std::string_view payload,
                            int64_t retry_after) {
                         out.code = code;
                         out.payload.assign(payload.data(),
                                            payload.size());
                         out.retryAfterNs = retry_after;
                         out.responded = true;
                     });

    ASSERT_TRUE(out.responded);
    EXPECT_EQ(out.code, StatusCode::Ok);
    setalgebra::PostingReply merged;
    ASSERT_TRUE(decodeMessage(out.payload, merged));
    EXPECT_EQ(merged.docIds, (std::vector<uint32_t>{1, 8}));
    EXPECT_TRUE(merged.degraded);
}

TEST(RecommendMidTierTest, ShedLeavesPropagateMaxRetryAfter)
{
    // Every leaf sheds with a pacing hint; the mid-tier must report
    // RESOURCE_EXHAUSTED upstream carrying the *largest* hint, not a
    // hint-less Unavailable that restarts the root's backoff from
    // zero (retry amplification).
    auto slow = std::make_shared<ScriptedChannel>(
        ScriptedChannel::Mode::Shed, "", 9'000'000);
    auto fast = std::make_shared<ScriptedChannel>(
        ScriptedChannel::Mode::Shed, "", 5'000'000);
    recommend::MidTier midtier({slow, fast});

    recommend::RatingQuery query{0, 0};
    CapturedResponse out;
    rpc::Server host;
    midtier.registerWith(host);
    host.invokeLocal(recommend::kPredict, encodeMessage(query),
                     [&out](StatusCode code, std::string_view payload,
                            int64_t retry_after) {
                         out.code = code;
                         out.payload.assign(payload.data(),
                                            payload.size());
                         out.retryAfterNs = retry_after;
                         out.responded = true;
                     });
    ASSERT_TRUE(out.responded);
    EXPECT_EQ(out.code, StatusCode::ResourceExhausted);
    EXPECT_EQ(out.retryAfterNs, 9'000'000);
}

TEST(RouterMidTierTest, GetPoolExhaustionKeepsShedRetryAfter)
{
    // The failover walk hits one shedding replica among dead ones;
    // pool exhaustion must surface the shed (with its hint) rather
    // than flattening everything to Unavailable.
    std::vector<std::shared_ptr<rpc::Channel>> leaves;
    leaves.push_back(std::make_shared<ScriptedChannel>(
        ScriptedChannel::Mode::Error));
    leaves.push_back(std::make_shared<ScriptedChannel>(
        ScriptedChannel::Mode::Shed, "", 7'000'000));
    leaves.push_back(std::make_shared<ScriptedChannel>(
        ScriptedChannel::Mode::Error));
    router::MidTier midtier(leaves);

    router::KvRequest request;
    request.op = router::Op::Get;
    request.key = "k";
    CapturedResponse out;
    rpc::Server host;
    midtier.registerWith(host);
    host.invokeLocal(router::kRoute, encodeMessage(request),
                     [&out](StatusCode code, std::string_view payload,
                            int64_t retry_after) {
                         out.code = code;
                         out.payload.assign(payload.data(),
                                            payload.size());
                         out.retryAfterNs = retry_after;
                         out.responded = true;
                     });
    ASSERT_TRUE(out.responded);
    EXPECT_EQ(out.code, StatusCode::ResourceExhausted);
    EXPECT_EQ(out.retryAfterNs, 7'000'000);
}

TEST(RouterMidTierTest, SetDegradedDownstreamMidTierPropagates)
{
    // All replicas store the value, but one is a downstream mid-tier
    // that itself only reached part of *its* pool.
    router::KvReply degraded_store;
    degraded_store.found = true;
    degraded_store.degraded = true;
    std::vector<std::shared_ptr<rpc::Channel>> leaves;
    leaves.push_back(std::make_shared<ScriptedChannel>(
        ScriptedChannel::Mode::Reply, kvFound("")));
    leaves.push_back(std::make_shared<ScriptedChannel>(
        ScriptedChannel::Mode::Reply, encodeMessage(degraded_store)));
    router::MidTierOptions options;
    options.replicas = 2;
    router::MidTier midtier(leaves, options);

    router::KvRequest request;
    request.op = router::Op::Set;
    request.key = "k";
    request.value = "v";
    CapturedResponse out;
    rpc::Server host;
    midtier.registerWith(host);
    host.invokeLocal(router::kRoute, encodeMessage(request),
                     [&out](StatusCode code, std::string_view payload,
                            int64_t retry_after) {
                         out.code = code;
                         out.payload.assign(payload.data(),
                                            payload.size());
                         out.retryAfterNs = retry_after;
                         out.responded = true;
                     });
    ASSERT_TRUE(out.responded);
    EXPECT_EQ(out.code, StatusCode::Ok);
    router::KvReply reply;
    ASSERT_TRUE(decodeMessage(out.payload, reply));
    EXPECT_TRUE(reply.degraded);
}

TEST(SetAlgebraMidTierTest, ExpiredInboundBudgetFailsFastBeforeFanout)
{
    // A 1ns inbound budget is expired by the time the handler runs;
    // the mid-tier must answer DEADLINE_EXCEEDED without issuing any
    // leaf RPC (forwarding the 1ns sentinel would re-promise time the
    // root no longer has — the depth-3 re-promise bug).
    auto leaf = std::make_shared<ScriptedChannel>(
        ScriptedChannel::Mode::Reply, postingPayload({1}));
    setalgebra::MidTier midtier({leaf});

    setalgebra::SearchQuery query;
    query.terms = {1};
    CapturedResponse out;
    rpc::Server host;
    midtier.registerWith(host);
    const uint64_t before =
        globalCounters().counter("fanout.expired_before_fanout").get();
    host.invokeLocal(setalgebra::kSearch, encodeMessage(query), 1,
                     [&out](StatusCode code, std::string_view payload,
                            int64_t retry_after) {
                         out.code = code;
                         out.payload.assign(payload.data(),
                                            payload.size());
                         out.retryAfterNs = retry_after;
                         out.responded = true;
                     });
    ASSERT_TRUE(out.responded);
    EXPECT_EQ(out.code, StatusCode::DeadlineExceeded);
    EXPECT_EQ(leaf->calls, 0);
    // The mid-tier answered, not the server: the server's entry path
    // runs no budget check of its own.
    EXPECT_EQ(globalCounters().counter("fanout.expired_before_fanout").get(),
              before + 1);
}

// --------------------------------------------------------------------
// Garbled legs: a leg that answers OK with a payload that does not
// decode contributed nothing, so it must degrade the answer like a
// failed leg, and a fan-out where every leg garbles must fail rather
// than answer an empty OK. ScriptedChannel's Garbage bytes happen to
// parse as a RatingReply or GraphReply, so these legs answer a lone
// varint continuation byte, which no message decodes.
// --------------------------------------------------------------------

std::shared_ptr<ScriptedChannel>
undecodableLeg()
{
    return std::make_shared<ScriptedChannel>(
        ScriptedChannel::Mode::Reply, std::string("\x80"));
}

/** Invoke `method` on `host`; `out` captures the response whenever
 *  it comes, so it must outlive any asynchronous completion. */
void
invoke(rpc::Server &host, uint32_t method, std::string body,
       CapturedResponse &out)
{
    host.invokeLocal(method, std::move(body),
                     [&out](StatusCode code, std::string_view payload,
                            int64_t retry_after) {
                         out.code = code;
                         out.payload.assign(payload.data(),
                                            payload.size());
                         out.retryAfterNs = retry_after;
                         out.responded = true;
                     });
}

std::unique_ptr<LshIndex>
twoLeafIndex(const std::vector<float> &point)
{
    LshParams params;
    params.numTables = 2;
    params.hashesPerTable = 2;
    params.bucketWidth = 1000.0f;
    auto index = std::make_unique<LshIndex>(4, params);
    index->insert(point, {0, 0});
    index->insert(point, {1, 0});
    return index;
}

TEST(HdSearchMidTierTest, GarbledLegDegradesTheMerge)
{
    const std::vector<float> point(4, 0.5f);
    hdsearch::LeafNNResponse healthy_response;
    healthy_response.pointIds = {0};
    healthy_response.distances = {0.25f};
    auto healthy = std::make_shared<ScriptedChannel>(
        ScriptedChannel::Mode::Reply, encodeMessage(healthy_response));
    hdsearch::MidTier midtier(twoLeafIndex(point),
                              {healthy, undecodableLeg()});
    rpc::Server host;
    midtier.registerWith(host);

    hdsearch::NNQuery query;
    query.features = point;
    query.k = 2;
    CapturedResponse out;
    invoke(host, hdsearch::kNearestNeighbors, encodeMessage(query), out);
    ASSERT_TRUE(out.responded);
    EXPECT_EQ(out.code, StatusCode::Ok);
    hdsearch::NNResponse response;
    ASSERT_TRUE(decodeMessage(out.payload, response));
    ASSERT_EQ(response.pointIds.size(), 1u);
    EXPECT_EQ(response.pointIds[0], hdsearch::globalPointId(0, 0));
    EXPECT_TRUE(response.degraded);
    EXPECT_EQ(midtier.degradedResponses(), 1u);
}

TEST(HdSearchMidTierTest, AllLegsGarbledIsUnavailable)
{
    const std::vector<float> point(4, 0.5f);
    hdsearch::MidTier midtier(twoLeafIndex(point),
                              {undecodableLeg(), undecodableLeg()});
    rpc::Server host;
    midtier.registerWith(host);

    hdsearch::NNQuery query;
    query.features = point;
    query.k = 2;
    CapturedResponse out;
    invoke(host, hdsearch::kNearestNeighbors, encodeMessage(query), out);
    ASSERT_TRUE(out.responded);
    EXPECT_EQ(out.code, StatusCode::Unavailable);
}

TEST(SetAlgebraMidTierTest, GarbledLegDegradesTheUnion)
{
    auto healthy = std::make_shared<ScriptedChannel>(
        ScriptedChannel::Mode::Reply, postingPayload({3, 4}));
    setalgebra::MidTier midtier({healthy, undecodableLeg()});
    rpc::Server host;
    midtier.registerWith(host);

    setalgebra::SearchQuery query;
    query.terms = {1};
    CapturedResponse out;
    invoke(host, setalgebra::kSearch, encodeMessage(query), out);
    ASSERT_TRUE(out.responded);
    EXPECT_EQ(out.code, StatusCode::Ok);
    setalgebra::PostingReply merged;
    ASSERT_TRUE(decodeMessage(out.payload, merged));
    EXPECT_EQ(merged.docIds, (std::vector<uint32_t>{3, 4}));
    EXPECT_TRUE(merged.degraded);
    EXPECT_EQ(midtier.degradedResponses(), 1u);
}

TEST(SetAlgebraMidTierTest, AllLegsGarbledIsUnavailable)
{
    setalgebra::MidTier midtier({undecodableLeg(), undecodableLeg()});
    rpc::Server host;
    midtier.registerWith(host);

    setalgebra::SearchQuery query;
    query.terms = {1};
    CapturedResponse out;
    invoke(host, setalgebra::kSearch, encodeMessage(query), out);
    ASSERT_TRUE(out.responded);
    EXPECT_EQ(out.code, StatusCode::Unavailable);
}

TEST(RecommendMidTierTest, GarbledLegDegradesTheAverage)
{
    auto healthy = std::make_shared<ScriptedChannel>(
        ScriptedChannel::Mode::Reply, ratingPayload(4.0));
    recommend::MidTier midtier({healthy, undecodableLeg()});
    rpc::Server host;
    midtier.registerWith(host);

    CapturedResponse out;
    invoke(host, recommend::kPredict,
           encodeMessage(recommend::RatingQuery{1, 2}), out);
    ASSERT_TRUE(out.responded);
    EXPECT_EQ(out.code, StatusCode::Ok);
    recommend::RatingReply reply;
    ASSERT_TRUE(decodeMessage(out.payload, reply));
    EXPECT_DOUBLE_EQ(reply.rating, 4.0);
    EXPECT_TRUE(reply.degraded);
    EXPECT_EQ(midtier.degradedResponses(), 1u);
}

TEST(RecommendMidTierTest, AllLegsGarbledIsUnavailable)
{
    recommend::MidTier midtier({undecodableLeg(), undecodableLeg()});
    rpc::Server host;
    midtier.registerWith(host);

    CapturedResponse out;
    invoke(host, recommend::kPredict,
           encodeMessage(recommend::RatingQuery{1, 2}), out);
    ASSERT_TRUE(out.responded);
    EXPECT_EQ(out.code, StatusCode::Unavailable);
}

// --------------------------------------------------------------------
// Outlier ejection through a paper service's mid-tier.
// --------------------------------------------------------------------

TEST(SetAlgebraMidTierTest, EjectionPolicyEjectsAFailingLeaf)
{
    // A mid-tier handed an ejection policy (as DeploymentOptions::
    // midTierFanout can carry one) must put its leaves under watch:
    // an unwatched leaf is always admitted, so it could never be
    // ejected however often it fails. Virtual time keeps every leg's
    // latency at zero, so only the failures can single a leaf out.
    sim::SimClock clock;
    ScopedClock scoped(clock);
    auto ejection = std::make_shared<rpc::EjectionPolicy>();
    FanoutPolicy policy;
    policy.ejection = ejection;
    auto broken =
        std::make_shared<ScriptedChannel>(ScriptedChannel::Mode::Error);
    setalgebra::MidTier midtier(
        {std::make_shared<ScriptedChannel>(ScriptedChannel::Mode::Reply,
                                           postingPayload({1})),
         broken,
         std::make_shared<ScriptedChannel>(ScriptedChannel::Mode::Reply,
                                           postingPayload({2}))},
        policy);
    rpc::Server host;
    midtier.registerWith(host);
    setalgebra::SearchQuery query;
    query.terms = {1};

    const uint32_t min_outcomes = rpc::EjectionPolicy::Options().minOutcomes;
    for (uint32_t i = 0; i < min_outcomes; ++i) {
        CapturedResponse out;
        invoke(host, setalgebra::kSearch, encodeMessage(query), out);
        ASSERT_TRUE(out.responded);
    }
    EXPECT_EQ(ejection->ejectedCount(), 0u);
    EXPECT_EQ(broken->calls, int(min_outcomes));

    // The leaf now has enough failed outcomes to be judged: the next
    // fan-out ejects it and skips its leg.
    const CounterSnapshot before = globalCounters().snapshot();
    CapturedResponse out;
    invoke(host, setalgebra::kSearch, encodeMessage(query), out);
    ASSERT_TRUE(out.responded);
    EXPECT_EQ(out.code, StatusCode::Ok);
    EXPECT_EQ(ejection->ejectedCount(), 1u);
    EXPECT_EQ(broken->calls, int(min_outcomes));
    const CounterSnapshot delta =
        CounterSet::diff(before, globalCounters().snapshot());
    EXPECT_EQ(CounterSet::valueOf(delta, "fanout.outlier_skipped"), 1u);
}

/** Serve one GraphNode request on a SimClock, draining any timers
 *  it armed; returns the node's degraded-reply count. */
uint64_t
serveGraphRequest(std::vector<std::shared_ptr<rpc::Channel>> downstream,
                  sim::SimClock &clock, CapturedResponse &out)
{
    graph::GraphNode node(std::move(downstream));
    rpc::Server host;
    node.registerWith(host);
    graph::GraphRequest request;
    request.workId = 5;
    invoke(host, graph::kProcess, encodeMessage(request), out);
    clock.runUntilIdle();
    return node.degradedReplies();
}

TEST(GraphNodeTest, GarbledLegDegradesTheReply)
{
    sim::SimClock clock;
    ScopedClock scoped(clock);
    graph::GraphReply child;
    child.workId = 5;
    child.nodesVisited = 1;
    auto healthy = std::make_shared<ScriptedChannel>(
        ScriptedChannel::Mode::Reply, encodeMessage(child));
    CapturedResponse out;
    const uint64_t degraded_replies =
        serveGraphRequest({healthy, undecodableLeg()}, clock, out);
    ASSERT_TRUE(out.responded);
    EXPECT_EQ(out.code, StatusCode::Ok);
    graph::GraphReply reply;
    ASSERT_TRUE(decodeMessage(out.payload, reply));
    EXPECT_EQ(reply.workId, 5u);
    EXPECT_EQ(reply.nodesVisited, 2u); // Self + the healthy child.
    EXPECT_TRUE(reply.degraded);
    EXPECT_EQ(degraded_replies, 1u);
}

TEST(GraphNodeTest, AllLegsGarbledIsUnavailable)
{
    sim::SimClock clock;
    ScopedClock scoped(clock);
    CapturedResponse out;
    serveGraphRequest({undecodableLeg(), undecodableLeg()}, clock, out);
    ASSERT_TRUE(out.responded);
    EXPECT_EQ(out.code, StatusCode::Unavailable);
}

} // namespace
} // namespace musuite
