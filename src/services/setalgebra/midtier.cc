/**
 * @file
 * Implementation of the Set Algebra mid-tier.
 */

#include "services/setalgebra/midtier.h"

#include "base/logging.h"
#include "index/postings.h"
#include "services/common/fanout.h"
#include "services/setalgebra/proto.h"

namespace musuite {
namespace setalgebra {

MidTier::MidTier(std::vector<std::shared_ptr<rpc::Channel>> leaves_in,
                 FanoutPolicy policy)
    : leaves(std::move(leaves_in), policy)
{
    MUSUITE_CHECK(!leaves.empty()) << "set algebra needs leaves";
}

void
MidTier::registerWith(rpc::Server &server)
{
    server.registerHandler(kSearch, [this](rpc::ServerCallPtr call) {
        handle(std::move(call));
    });
}

namespace {

/** Response path: set union over the per-shard intersections. */
struct UnionFold
{
    std::vector<std::vector<uint32_t>> lists;

    bool
    add(uint32_t, PostingReply &reply)
    {
        lists.push_back(std::move(reply.docIds));
        return true;
    }

    PostingReply
    finish() const
    {
        PostingReply merged;
        merged.docIds = unionAll(lists);
        return merged;
    }
};

} // namespace

void
MidTier::handle(rpc::ServerCallPtr call)
{
    SearchQuery query;
    if (!decodeMessage(call->body(), query) || query.terms.empty()) {
        call->respond(StatusCode::InvalidArgument, "bad search query");
        return;
    }
    served.fetch_add(1, std::memory_order_relaxed);

    // Request path: forward the terms to every leaf shard.
    std::vector<Leg> legs;
    legs.reserve(leaves.size());
    for (uint32_t leaf = 0; leaf < leaves.size(); ++leaf)
        legs.push_back({leaf, call->body()}); // Same SearchQuery shape.
    UnionFold fold;
    fold.lists.reserve(legs.size());
    leaves.serve<PostingReply>(call, kIntersect, std::move(legs),
                               std::move(fold));
}

} // namespace setalgebra
} // namespace musuite
