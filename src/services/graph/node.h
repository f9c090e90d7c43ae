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
 * Each node models its own compute/queue station (k workers × bounded
 * queue) explicitly in virtual time, because the simulated deployments
 * run on unstarted Servers whose invokeLocal has no thread pool:
 *
 *   arrival ── admission ── queue wait ── compute ── cache / fan-out
 *
 *  - Admission: at capacity (workers + queueCapacity in flight) the
 *    request is shed with RESOURCE_EXHAUSTED and a retry-after hint of
 *    the earliest time a worker frees up (`graph.node.shed`).
 *  - The compute completion fires on the node's Clock after queue wait
 *    plus service time; a request whose inbound budget ran out while
 *    queued is answered DEADLINE_EXCEEDED without downstream work
 *    (failFastIfExpired, the tier-3 shedding analog).
 *  - Cache: with probability cacheHitRatio (seeded) the node answers
 *    immediately after compute (`graph.node.cache_hit`).
 *  - Otherwise it fans out to every downstream channel through
 *    serveFanout, which resolves the policy against the budget
 *    remaining *now* — never the budget as received.
 *
 * Propagation contract (the three multi-hop fixes, tested at depth 3):
 * serveFanout re-reads the remaining budget at the forwarding point,
 * ORs a downstream reply's degraded flag into this node's reply, and,
 * when every leg fails, sends the dominant failure — including the max
 * downstream retry-after — upstream instead of a re-minted local
 * error.
 */

#ifndef MUSUITE_SERVICES_GRAPH_NODE_H
#define MUSUITE_SERVICES_GRAPH_NODE_H

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "base/rng.h"
#include "base/threading.h"
#include "rpc/channel.h"
#include "rpc/server.h"
#include "services/common/fanout.h"

namespace musuite {

class Clock;

namespace graph {

struct NodeOptions
{
    std::string name = "graph";
    int64_t computeNs = 100'000; //!< Service time per request.
    uint32_t workers = 4;        //!< Parallel compute slots.
    /** Waiting slots beyond the workers; arrivals past
     *  workers + queueCapacity in flight are shed. 0 = unbounded. */
    uint32_t queueCapacity = 64;
    double cacheHitRatio = 0.0;
    uint64_t seed = 1;
    /** Per-leg policy for the downstream fan-out. */
    FanoutPolicy fanout;
};

class GraphNode
{
  public:
    /**
     * `clock` times compute (must be the same clock domain as the
     * downstream channels and the hosting server). Leaf nodes pass an
     * empty `downstream`.
     */
    GraphNode(Clock &clock,
              std::vector<std::shared_ptr<rpc::Channel>> downstream,
              NodeOptions options = {});

    void registerWith(rpc::Server &server);

    uint64_t requestsServed() const { return served; }
    uint64_t requestsShed() const { return shed; }
    uint64_t degradedReplies() const { return degraded; }

  private:
    void handle(rpc::ServerCallPtr call);
    /** Queue wait + compute elapsed; answer or fan out. */
    void onComputeDone(rpc::ServerCallPtr call, uint64_t work_id);
    void fanoutDownstream(rpc::ServerCallPtr call, uint64_t work_id);

    Clock &clock;
    std::vector<std::shared_ptr<rpc::Channel>> downstream;
    NodeOptions options;

    Mutex mutex{LockRank::graphNode, "graph.node"};
    /** Virtual instant each worker slot next becomes free. */
    std::vector<int64_t> workerFreeAtNs GUARDED_BY(mutex);
    uint32_t inflight GUARDED_BY(mutex) = 0;
    Rng rng GUARDED_BY(mutex);

    std::atomic<uint64_t> served{0};
    std::atomic<uint64_t> shed{0};
    std::atomic<uint64_t> degraded{0};
};

} // namespace graph
} // namespace musuite

#endif // MUSUITE_SERVICES_GRAPH_NODE_H
