/**
 * @file
 * Router mid-tier microservice (paper §III-B, Fig. 5).
 *
 * Stages: (1) parse the client's get/set, (2) route computation —
 * SpookyHash the key to pick the replication pool of leaves, (3)
 * internal client code forwards the request: sets fan out to every
 * replica in the pool (replication both spreads load and provides
 * fault tolerance); gets go to one randomly chosen replica, failing
 * over to the next replica if that leaf is unreachable.
 */

#ifndef MUSUITE_SERVICES_ROUTER_MIDTIER_H
#define MUSUITE_SERVICES_ROUTER_MIDTIER_H

#include <atomic>
#include <memory>
#include <vector>

#include "rpc/server.h"
#include "services/common/fanout.h"

namespace musuite {
namespace router {

struct MidTierOptions
{
    uint32_t replicas = 3; //!< Replication-pool size (paper: 3).
    uint64_t seed = 23;    //!< Replica-choice randomness.
};

class MidTier
{
  public:
    /**
     * @param policy Resilience policy. Sets fan out with policy.leg
     *               options and complete early once quorumFraction of
     *               the pool stored the value (flagged degraded if any
     *               replica missed it); gets apply policy.leg to each
     *               sequential failover attempt.
     */
    MidTier(std::vector<std::shared_ptr<rpc::Channel>> leaves,
            MidTierOptions options = {}, FanoutPolicy policy = {});

    void registerWith(rpc::Server &server);

    /**
     * The replication pool for a key: replica i lives on leaf
     * (spooky(key) + i) mod N.
     */
    std::vector<uint32_t> replicaPool(std::string_view key) const;

    uint64_t opsRouted() const { return served; }
    /** Gets that needed replica failover (fault-tolerance metric). */
    uint64_t failovers() const { return leaves.failovers(); }
    /** Sets acknowledged by only part of the replica pool. */
    uint64_t degradedResponses() const { return leaves.degradedResponses(); }

  private:
    void handle(rpc::ServerCallPtr call);
    void routeSet(rpc::ServerCallPtr call, const std::string &body,
                  const std::vector<uint32_t> &pool);

    Downstream leaves;
    MidTierOptions options;
    std::atomic<uint64_t> served{0};
    std::atomic<uint64_t> replicaSalt{0};
};

} // namespace router
} // namespace musuite

#endif // MUSUITE_SERVICES_ROUTER_MIDTIER_H
