/**
 * @file
 * HDSearch mid-tier microservice (paper §III-A, Fig. 3).
 *
 * Request path: (1) look the query vector up in the in-memory LSH
 * tables to gather candidate {leaf, point-id} tuples, (2) map point
 * ids to leaf shards, (3) launch asynchronous RPCs to the leaves.
 * Response path: merge the distance-sorted leaf lists into the global
 * top-k and answer the front-end.
 */

#ifndef MUSUITE_SERVICES_HDSEARCH_MIDTIER_H
#define MUSUITE_SERVICES_HDSEARCH_MIDTIER_H

#include <memory>
#include <vector>

#include "index/lsh.h"
#include "rpc/server.h"
#include "services/common/fanout.h"

namespace musuite {
namespace hdsearch {

class MidTier
{
  public:
    /**
     * @param index LSH tables referencing {leaf, point-id} tuples.
     * @param leaves One channel per leaf shard, indexed by leaf id.
     * @param policy Per-leg deadline/retry and quorum policy;
     *               the default waits for every leg with plain calls.
     */
    MidTier(std::unique_ptr<LshIndex> index,
            std::vector<std::shared_ptr<rpc::Channel>> leaves,
            FanoutPolicy policy = {});

    /** Register the kNearestNeighbors handler. */
    void registerWith(rpc::Server &server);

    const LshIndex &index() const { return *lsh; }
    uint64_t queriesServed() const { return served; }
    /** Responses merged from partial leaf results. */
    uint64_t degradedResponses() const { return leaves.degradedResponses(); }

  private:
    void handle(rpc::ServerCallPtr call);

    std::unique_ptr<LshIndex> lsh;
    Downstream leaves;
    std::atomic<uint64_t> served{0};
};

/**
 * Offline index construction: shard `store` round-robin across
 * `num_leaves` leaves, build the mid-tier LSH over every point, and
 * return the per-leaf shards.
 */
struct BuiltIndex
{
    std::unique_ptr<LshIndex> midTierIndex;
    std::vector<FeatureStore> leafShards;
};

BuiltIndex buildShardedIndex(const FeatureStore &store,
                             uint32_t num_leaves, LshParams params);

} // namespace hdsearch
} // namespace musuite

#endif // MUSUITE_SERVICES_HDSEARCH_MIDTIER_H
