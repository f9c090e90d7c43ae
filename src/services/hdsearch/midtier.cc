/**
 * @file
 * Implementation of the HDSearch mid-tier.
 */

#include "services/hdsearch/midtier.h"

#include "base/logging.h"
#include "services/common/fanout.h"
#include "services/hdsearch/proto.h"

namespace musuite {
namespace hdsearch {

MidTier::MidTier(std::unique_ptr<LshIndex> index,
                 std::vector<std::shared_ptr<rpc::Channel>> leaves_in,
                 FanoutPolicy policy)
    : lsh(std::move(index)), leaves(std::move(leaves_in), policy)
{
    MUSUITE_CHECK(!leaves.empty()) << "mid-tier needs leaves";
}

void
MidTier::registerWith(rpc::Server &server)
{
    server.registerHandler(kNearestNeighbors,
                           [this](rpc::ServerCallPtr call) {
                               handle(std::move(call));
                           });
}

namespace {

/** Response path: merge the distance-sorted leaf lists into the
 *  global top-k. */
struct TopKFold
{
    uint32_t k;
    std::vector<std::vector<Neighbor>> lists;

    bool
    add(uint32_t leaf, const LeafNNResponse &reply)
    {
        std::vector<Neighbor> list;
        list.reserve(reply.pointIds.size());
        for (size_t j = 0; j < reply.pointIds.size(); ++j) {
            list.push_back({globalPointId(leaf, reply.pointIds[j]),
                            reply.distances[j]});
        }
        lists.push_back(std::move(list));
        return true;
    }

    NNResponse
    finish() const
    {
        const auto merged = mergeTopK(lists, k);
        NNResponse response;
        response.pointIds.reserve(merged.size());
        response.distances.reserve(merged.size());
        for (const Neighbor &neighbor : merged) {
            response.pointIds.push_back(neighbor.id);
            response.distances.push_back(neighbor.distance);
        }
        return response;
    }
};

} // namespace

void
MidTier::handle(rpc::ServerCallPtr call)
{
    NNQuery query;
    if (!decodeMessage(call->body(), query) || query.k == 0) {
        call->respond(StatusCode::InvalidArgument, "bad NN query");
        return;
    }
    served.fetch_add(1, std::memory_order_relaxed);

    // Request path step 1-2: LSH lookup, point ids grouped by leaf.
    auto candidates = lsh->query(query.features);

    // Step 3: launch asynchronous clients to the leaf microservers.
    std::vector<Leg> legs;
    legs.reserve(candidates.size());
    for (auto &[leaf, point_ids] : candidates) {
        if (leaf >= leaves.size()) {
            MUSUITE_WARN() << "LSH entry references unknown leaf "
                           << leaf;
            continue;
        }
        LeafNNRequest leaf_request;
        leaf_request.features = query.features;
        leaf_request.candidates = std::move(point_ids);
        leaf_request.k = query.k;
        legs.push_back({leaf, encodeMessage(leaf_request)});
    }
    if (legs.empty()) {
        // No usable bucket hits: legitimately empty result.
        call->respondOk(encodeMessage(NNResponse{}));
        return;
    }
    TopKFold fold{query.k, {}};
    fold.lists.reserve(legs.size());
    leaves.serve<LeafNNResponse>(call, kLeafDistance, std::move(legs),
                                 std::move(fold));
}

BuiltIndex
buildShardedIndex(const FeatureStore &store, uint32_t num_leaves,
                  LshParams params)
{
    MUSUITE_CHECK(num_leaves >= 1) << "need >= 1 leaf";
    BuiltIndex built;
    built.midTierIndex =
        std::make_unique<LshIndex>(store.dimension(), params);
    for (uint32_t leaf = 0; leaf < num_leaves; ++leaf)
        built.leafShards.emplace_back(store.dimension());

    for (uint64_t i = 0; i < store.size(); ++i) {
        const uint32_t leaf = uint32_t(i % num_leaves);
        const uint32_t local =
            uint32_t(built.leafShards[leaf].add(store.view(i)));
        built.midTierIndex->insert(store.view(i), {leaf, local});
    }
    return built;
}

} // namespace hdsearch
} // namespace musuite
