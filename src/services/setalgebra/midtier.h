/**
 * @file
 * Set Algebra mid-tier microservice (paper §III-C, Fig. 6): forwards
 * the search terms to every leaf shard and unions the intersected
 * posting lists the leaves return.
 */

#ifndef MUSUITE_SERVICES_SETALGEBRA_MIDTIER_H
#define MUSUITE_SERVICES_SETALGEBRA_MIDTIER_H

#include <memory>
#include <vector>

#include "rpc/server.h"
#include "services/common/fanout.h"

namespace musuite {
namespace setalgebra {

class MidTier
{
  public:
    explicit MidTier(std::vector<std::shared_ptr<rpc::Channel>> leaves,
                     FanoutPolicy policy = {});

    void registerWith(rpc::Server &server);

    uint64_t queriesServed() const { return served; }
    /** Responses unioned from partial leaf results. */
    uint64_t degradedResponses() const { return leaves.degradedResponses(); }

  private:
    void handle(rpc::ServerCallPtr call);

    Downstream leaves;
    std::atomic<uint64_t> served{0};
};

} // namespace setalgebra
} // namespace musuite

#endif // MUSUITE_SERVICES_SETALGEBRA_MIDTIER_H
