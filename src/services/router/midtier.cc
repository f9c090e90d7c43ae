/**
 * @file
 * Implementation of the Router mid-tier.
 */

#include "services/router/midtier.h"

#include "base/logging.h"
#include "hash/spooky.h"
#include "services/common/fanout.h"
#include "services/router/proto.h"

namespace musuite {
namespace router {

MidTier::MidTier(std::vector<std::shared_ptr<rpc::Channel>> leaves_in,
                 MidTierOptions options_in, FanoutPolicy policy)
    : leaves(std::move(leaves_in), std::move(policy)), options(options_in)
{
    MUSUITE_CHECK(!leaves.empty()) << "router needs leaves";
    options.replicas =
        std::min<uint32_t>(options.replicas, uint32_t(leaves.size()));
    MUSUITE_CHECK(options.replicas >= 1) << "need >= 1 replica";
    replicaSalt.store(options.seed);
}

void
MidTier::registerWith(rpc::Server &server)
{
    server.registerHandler(kRoute, [this](rpc::ServerCallPtr call) {
        handle(std::move(call));
    });
}

std::vector<uint32_t>
MidTier::replicaPool(std::string_view key) const
{
    // Stage 2: route computation. SpookyHash distributes keys
    // uniformly across destination leaves; consecutive leaves form
    // the replication pool.
    const uint32_t primary =
        shardForKey(key, uint32_t(leaves.size()));
    std::vector<uint32_t> pool(options.replicas);
    for (uint32_t i = 0; i < options.replicas; ++i)
        pool[i] = (primary + i) % uint32_t(leaves.size());
    return pool;
}

void
MidTier::handle(rpc::ServerCallPtr call)
{
    KvRequest request;
    if (!decodeMessage(call->body(), request) || request.key.empty()) {
        call->respond(StatusCode::InvalidArgument, "bad route request");
        return;
    }
    served.fetch_add(1, std::memory_order_relaxed);

    const std::vector<uint32_t> pool = replicaPool(request.key);
    if (request.op == Op::Set) {
        routeSet(call, call->body(), pool);
    } else {
        // Random replica choice balances read load across the pool.
        const uint64_t salt =
            replicaSalt.fetch_add(0x9E3779B97F4A7C15ull,
                                  std::memory_order_relaxed);
        std::vector<uint32_t> rotated(pool.size());
        const size_t start = size_t(salt % pool.size());
        for (size_t i = 0; i < pool.size(); ++i)
            rotated[i] = pool[(start + i) % pool.size()];
        leaves.failover(call, kLeafOp, call->body(), std::move(rotated));
    }
}

namespace {

/** A set stands if any replica stored it; one that did not (or whose
 *  reply is unusable) only degrades the answer. */
struct StoreFold
{
    bool add(uint32_t, const KvReply &reply) { return reply.found; }

    KvReply
    finish() const
    {
        KvReply reply;
        reply.found = true;
        return reply;
    }
};

} // namespace

void
MidTier::routeSet(rpc::ServerCallPtr call, const std::string &body,
                  const std::vector<uint32_t> &pool)
{
    // Sets go to every replica so the data survives leaf failures.
    std::vector<Leg> legs;
    legs.reserve(pool.size());
    for (uint32_t leaf : pool)
        legs.push_back({leaf, body}); // Leaf understands the KvRequest.
    leaves.serve<KvReply>(call, kLeafOp, std::move(legs), StoreFold{});
}

} // namespace router
} // namespace musuite
