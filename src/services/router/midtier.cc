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
                 MidTierOptions options_in)
    : leaves(std::move(leaves_in)), options(options_in)
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
        routeGet(call, call->body(), std::move(rotated), 0, {});
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
    std::vector<FanoutRequest> requests;
    requests.reserve(pool.size());
    for (uint32_t leaf : pool) {
        FanoutRequest request;
        request.channel = leaves[leaf].get();
        request.body = body; // Leaf understands the same KvRequest.
        request.tag = leaf;
        requests.push_back(std::move(request));
    }
    serveFanout<KvReply>(call, kLeafOp, std::move(requests),
                         options.fanout, degraded, StoreFold{});
}

void
MidTier::routeGet(rpc::ServerCallPtr call, std::string body,
                  std::vector<uint32_t> pool, size_t attempt,
                  std::vector<LeafResult> failures)
{
    if (attempt >= pool.size()) {
        respondFailure(call,
                       dominantFailure(failures,
                                       "all replicas unreachable"));
        return;
    }
    // A failover walk can outlive the caller's budget: stop promising
    // replicas time the root no longer has.
    if (failFastIfExpired(call))
        return;
    if (attempt > 0)
        failoverCount.fetch_add(1, std::memory_order_relaxed);

    rpc::Channel *channel = leaves[pool[attempt]].get();
    std::string body_copy = body;
    // Each failover attempt gets the per-leg resilience options
    // clamped to the budget *remaining now* — earlier attempts have
    // already spent part of it (budget-decrement fix).
    channel->call(
        kLeafOp, std::move(body_copy),
        options.fanout.legOptions(call->remainingBudgetNs()),
        [this, call, body = std::move(body), pool = std::move(pool),
         attempt, failures = std::move(failures)](
            const Status &status, std::string_view payload) mutable {
            if (status.isOk()) {
                // Preserve a downstream mid-tier's degraded flag: the
                // payload is relayed verbatim, so it already carries it.
                call->respondOk(payload);
                return;
            }
            // Replica down: fall over to the next one in the pool,
            // remembering why this one failed.
            failures.push_back(LeafResult{status, {}, pool[attempt]});
            routeGet(call, std::move(body), std::move(pool),
                     attempt + 1, std::move(failures));
        });
}

} // namespace router
} // namespace musuite
