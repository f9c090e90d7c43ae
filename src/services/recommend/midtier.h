/**
 * @file
 * Recommend mid-tier microservice (paper §III-D, Fig. 7): forwards
 * the {user, item} pair to every leaf shard and averages the rating
 * predictions the leaves return.
 */

#ifndef MUSUITE_SERVICES_RECOMMEND_MIDTIER_H
#define MUSUITE_SERVICES_RECOMMEND_MIDTIER_H

#include <memory>
#include <vector>

#include "ml/matrix.h"
#include "rpc/server.h"
#include "services/common/fanout.h"

namespace musuite {
namespace recommend {

class MidTier
{
  public:
    explicit MidTier(std::vector<std::shared_ptr<rpc::Channel>> leaves,
                     FanoutPolicy policy = {});

    void registerWith(rpc::Server &server);

    uint64_t queriesServed() const { return served; }
    /** Responses averaged from partial leaf results. */
    uint64_t degradedResponses() const { return leaves.degradedResponses(); }

  private:
    void handle(rpc::ServerCallPtr call);

    Downstream leaves;
    std::atomic<uint64_t> served{0};
};

/**
 * Shard observed ratings round-robin across leaves: every leaf sees
 * the full user/item id space but only a slice of the observations,
 * which is what makes averaging the per-shard predictions meaningful.
 */
std::vector<SparseRatings> shardRatings(const SparseRatings &all,
                                        uint32_t num_leaves);

} // namespace recommend
} // namespace musuite

#endif // MUSUITE_SERVICES_RECOMMEND_MIDTIER_H
