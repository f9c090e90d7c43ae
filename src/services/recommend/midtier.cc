/**
 * @file
 * Implementation of the Recommend mid-tier.
 */

#include "services/recommend/midtier.h"

#include "base/logging.h"
#include "ml/matrix.h"
#include "services/common/fanout.h"
#include "services/recommend/proto.h"

namespace musuite {
namespace recommend {

MidTier::MidTier(std::vector<std::shared_ptr<rpc::Channel>> leaves_in,
                 FanoutPolicy policy)
    : leaves(std::move(leaves_in), policy)
{
    MUSUITE_CHECK(!leaves.empty()) << "recommend needs leaves";
}

void
MidTier::registerWith(rpc::Server &server)
{
    server.registerHandler(kPredict, [this](rpc::ServerCallPtr call) {
        handle(std::move(call));
    });
}

namespace {

/** Response path: the average of the leaves' predictions. */
struct MeanFold
{
    double sum = 0.0;
    uint32_t count = 0;

    bool
    add(uint32_t, const RatingReply &reply)
    {
        sum += reply.rating;
        ++count;
        return true;
    }

    RatingReply
    finish() const
    {
        RatingReply averaged;
        averaged.rating = sum / double(count);
        return averaged;
    }
};

} // namespace

void
MidTier::handle(rpc::ServerCallPtr call)
{
    RatingQuery query;
    if (!decodeMessage(call->body(), query)) {
        call->respond(StatusCode::InvalidArgument, "bad rating query");
        return;
    }
    served.fetch_add(1, std::memory_order_relaxed);

    // Request path: forward the pair to every leaf.
    std::vector<Leg> legs;
    legs.reserve(leaves.size());
    for (uint32_t leaf = 0; leaf < leaves.size(); ++leaf)
        legs.push_back({leaf, call->body()});
    leaves.serve<RatingReply>(call, kLeafPredict, std::move(legs),
                              MeanFold{});
}

std::vector<SparseRatings>
shardRatings(const SparseRatings &all, uint32_t num_leaves)
{
    MUSUITE_CHECK(num_leaves >= 1) << "need >= 1 leaf";
    std::vector<std::vector<Rating>> buckets(num_leaves);
    const auto &observed = all.observed();
    for (size_t i = 0; i < observed.size(); ++i)
        buckets[i % num_leaves].push_back(observed[i]);

    std::vector<SparseRatings> shards;
    shards.reserve(num_leaves);
    for (auto &bucket : buckets) {
        shards.emplace_back(all.userCount(), all.itemCount(),
                            std::move(bucket));
    }
    return shards;
}

} // namespace recommend
} // namespace musuite
