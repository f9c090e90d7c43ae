/**
 * @file
 * GraphNode: the composable service-graph mid-tier (ROADMAP item 4).
 *
 * One node is one microservice in a request DAG. Unlike the four
 * paper services — whose downstreams are always leaves — a GraphNode's
 * downstream channels can point at *other GraphNodes*, so arbitrary
 * depth-N topologies compose through the existing Channel seam with
 * the full deadline/retry/ejection machinery on every hop.
 *
 * A node's queue and workers are its hosting rpc::Server's: topology
 * builders set ServerOptions::serviceNs, workerThreads and
 * queueCapacity, and on a simulated clock the server's virtual-time
 * station (Server::invokeLocal) sheds, queues and times compute before
 * the node's handler ever runs. The handler then
 *
 *  - answers DEADLINE_EXCEEDED without downstream work when the
 *    inbound budget ran out while the request queued or computed
 *    (failFastIfExpired);
 *  - answers from cache for a fixed share (cacheHitRatio) of work
 *    ids, drawn statelessly from (seed, workId) so a retry of the same
 *    item sees the same answer (`graph.node.cache_hit`);
 *  - otherwise fans out to every downstream channel through its
 *    Downstream pool, which resolves the policy against the budget
 *    remaining *now* — never the budget as received. The pool also
 *    watches every downstream channel when the policy ejects outliers.
 *
 * Propagation contract (the three multi-hop fixes, tested at depth 3):
 * Downstream::serve re-reads the remaining budget at the forwarding point,
 * ORs a downstream reply's degraded flag into this node's reply, and,
 * when every leg fails, sends the dominant failure — including the max
 * downstream retry-after — upstream instead of a re-minted local
 * error.
 */

#ifndef MUSUITE_SERVICES_GRAPH_NODE_H
#define MUSUITE_SERVICES_GRAPH_NODE_H

#include <memory>
#include <vector>

#include "rpc/server.h"
#include "services/common/fanout.h"

namespace musuite {
namespace graph {

struct NodeOptions
{
    /** Share of work ids this node answers from cache. */
    double cacheHitRatio = 0.0;
    uint64_t seed = 1;
    /** Per-leg policy for the downstream fan-out. */
    FanoutPolicy fanout;
};

class GraphNode
{
  public:
    /** Leaf nodes pass an empty `downstream`. */
    explicit GraphNode(
        std::vector<std::shared_ptr<rpc::Channel>> downstream,
        NodeOptions options = {});

    void registerWith(rpc::Server &server);

    uint64_t degradedReplies() const { return downstream.degradedResponses(); }

  private:
    void handle(rpc::ServerCallPtr call);

    Downstream downstream;
    NodeOptions options;
};

} // namespace graph
} // namespace musuite

#endif // MUSUITE_SERVICES_GRAPH_NODE_H
