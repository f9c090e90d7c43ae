/**
 * @file
 * Implementation of the graph-service node.
 */

#include "services/graph/node.h"

#include <algorithm>

#include "base/clock.h"
#include "base/logging.h"
#include "services/graph/proto.h"
#include "stats/counters.h"

namespace musuite {
namespace graph {

GraphNode::GraphNode(
    Clock &clock_in,
    std::vector<std::shared_ptr<rpc::Channel>> downstream_in,
    NodeOptions options_in)
    : clock(clock_in), downstream(std::move(downstream_in)),
      options(std::move(options_in)),
      workerFreeAtNs(std::max<uint32_t>(1, options.workers), 0),
      rng(options.seed)
{
    MUSUITE_CHECK(options.computeNs >= 0) << "negative compute time";
    // An ejection policy on the fan-out makes this node the pool
    // owner: watch every downstream channel so each one gets a
    // PeerHealth fed from its attempt outcomes, and the policy can
    // judge the pool when fanoutDownstream resolves its options.
    if (options.fanout.ejection) {
        for (const auto &channel : downstream)
            options.fanout.ejection->watch(*channel);
    }
}

void
GraphNode::registerWith(rpc::Server &server)
{
    server.registerHandler(kProcess, [this](rpc::ServerCallPtr call) {
        handle(std::move(call));
    });
}

void
GraphNode::handle(rpc::ServerCallPtr call)
{
    if (failFastIfExpired(call))
        return;
    GraphRequest request;
    if (!decodeMessage(call->body(), request)) {
        call->respond(StatusCode::InvalidArgument,
                      "bad graph request");
        return;
    }
    served.fetch_add(1, std::memory_order_relaxed);

    // Admission + queue model: claim the earliest-free worker slot,
    // or shed when compute occupancy is at capacity. The retry-after
    // hint is the real drain time — when a slot frees up plus one
    // service time — so upstream backoff is paced by actual load.
    bool admitted = true;
    int64_t finish_delay_ns = 0;
    int64_t retry_after_ns = 0;
    {
        MutexLock guard(mutex);
        const int64_t now_ns = clock.nowNanos();
        auto slot = std::min_element(workerFreeAtNs.begin(),
                                     workerFreeAtNs.end());
        if (options.queueCapacity != 0 &&
            inflight >= options.workers + options.queueCapacity) {
            admitted = false;
            retry_after_ns = std::max<int64_t>(*slot - now_ns, 0) +
                             options.computeNs;
        } else {
            const int64_t start_ns = std::max(now_ns, *slot);
            *slot = start_ns + options.computeNs;
            finish_delay_ns = *slot - now_ns;
            ++inflight;
        }
    }
    if (!admitted) {
        shed.fetch_add(1, std::memory_order_relaxed);
        globalCounters().counter("graph.node.shed").add();
        call->respond(StatusCode::ResourceExhausted, "",
                      retry_after_ns);
        return;
    }

    const uint64_t work_id = request.workId;
    clock.schedule(finish_delay_ns,
                   [this, call = std::move(call), work_id] {
                       onComputeDone(call, work_id);
                   });
}

void
GraphNode::onComputeDone(rpc::ServerCallPtr call, uint64_t work_id)
{
    bool cache_hit = false;
    {
        MutexLock guard(mutex);
        MUSUITE_CHECK(inflight > 0) << "compute/inflight mismatch";
        --inflight;
        cache_hit = options.cacheHitRatio > 0.0 &&
                    rng.nextBool(options.cacheHitRatio);
    }

    // The budget ran out while this request queued or computed: the
    // root has stopped waiting, so don't burn downstream work on it.
    if (failFastIfExpired(call))
        return;

    if (cache_hit || downstream.empty()) {
        if (cache_hit)
            globalCounters().counter("graph.node.cache_hit").add();
        GraphReply reply;
        reply.workId = work_id;
        reply.nodesVisited = 1;
        reply.cacheHit = cache_hit;
        call->respondOk(encodeMessage(reply));
        return;
    }
    fanoutDownstream(call, work_id);
}

namespace {

/** Counts the nodes the request visited: self plus every subtree. */
struct VisitFold
{
    GraphReply merged;

    bool
    add(uint32_t, const GraphReply &reply)
    {
        merged.nodesVisited += reply.nodesVisited;
        return true;
    }

    GraphReply finish() const { return merged; }
};

} // namespace

void
GraphNode::fanoutDownstream(rpc::ServerCallPtr call, uint64_t work_id)
{
    GraphRequest forward;
    forward.workId = work_id;

    std::vector<FanoutRequest> requests;
    requests.reserve(downstream.size());
    for (size_t i = 0; i < downstream.size(); ++i) {
        FanoutRequest request;
        request.channel = downstream[i].get();
        request.body = encodeMessage(forward);
        request.tag = uint32_t(i);
        requests.push_back(std::move(request));
    }

    VisitFold fold;
    fold.merged.workId = work_id;
    fold.merged.nodesVisited = 1; // Self.
    serveFanout<GraphReply>(call, kProcess, std::move(requests),
                            options.fanout, degraded, fold);
}

} // namespace graph
} // namespace musuite
