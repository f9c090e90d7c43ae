/**
 * @file
 * Implementation of the graph-service node.
 */

#include "services/graph/node.h"

#include "base/rng.h"
#include "services/graph/proto.h"
#include "stats/counters.h"

namespace musuite {
namespace graph {

GraphNode::GraphNode(
    std::vector<std::shared_ptr<rpc::Channel>> downstream_in,
    NodeOptions options_in)
    : downstream(std::move(downstream_in), options_in.fanout),
      options(std::move(options_in))
{
}

void
GraphNode::registerWith(rpc::Server &server)
{
    server.registerHandler(kProcess, [this](rpc::ServerCallPtr call) {
        handle(std::move(call));
    });
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
GraphNode::handle(rpc::ServerCallPtr call)
{
    // The budget ran out while this request queued or computed: the
    // root has stopped waiting, so don't burn downstream work on it.
    if (failFastIfExpired(call))
        return;
    GraphRequest request;
    if (!decodeMessage(call->body(), request)) {
        call->respond(StatusCode::InvalidArgument,
                      "bad graph request");
        return;
    }
    const uint64_t work_id = request.workId;

    const bool cache_hit =
        options.cacheHitRatio > 0.0 &&
        Rng(options.seed ^ work_id).nextBool(options.cacheHitRatio);
    if (cache_hit || downstream.empty()) {
        if (cache_hit) {
            static Counter &cache_hits =
                globalCounters().counter("graph.node.cache_hit");
            cache_hits.add();
        }
        GraphReply reply;
        reply.workId = work_id;
        reply.nodesVisited = 1;
        reply.cacheHit = cache_hit;
        call->respondOk(encodeMessage(reply));
        return;
    }

    std::vector<Leg> legs;
    legs.reserve(downstream.size());
    for (uint32_t i = 0; i < downstream.size(); ++i)
        legs.push_back({i, encodeMessage(request)}); // Forwarded verbatim.

    VisitFold fold;
    fold.merged.workId = work_id;
    fold.merged.nodesVisited = 1; // Self.
    downstream.serve<GraphReply>(call, kProcess, std::move(legs), fold);
}

} // namespace graph
} // namespace musuite
