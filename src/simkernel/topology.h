/**
 * @file
 * Multi-host sim topologies: instantiate a whole N-tier deployment
 * from a declarative GraphScenario in one call.
 *
 * Before this helper, every sim test wired its servers, channels, and
 * fault injectors by hand (see tests/sim_replay_test's fan-out
 * scenario). buildTopology() turns a GraphScenario — tiers of fan-out
 * widths, compute models, link latency *distributions*, and fault
 * shapes — into a tree of unstarted rpc::Servers hosting GraphNodes,
 * wired parent-to-child through SimChannels on one SimClock. Each
 * tier's compute model (computeNs, workers, queueCapacity) becomes its
 * servers' ServerOptions (serviceNs, workerThreads, queueCapacity), so
 * every host queues and sheds in the server's virtual-time station.
 * The returned Topology owns everything; callers drive traffic through
 * `root` (a client-side SimChannel to the root node) and pump the
 * clock.
 *
 * Determinism: all per-entity randomness (link jitter samplers, node
 * cache draws, fault injectors) derives from scenario.seed mixed with
 * the entity's tier/index, so (spec, seed) fully determines a replay.
 */

#ifndef MUSUITE_SIMKERNEL_TOPOLOGY_H
#define MUSUITE_SIMKERNEL_TOPOLOGY_H

#include <functional>
#include <memory>
#include <vector>

#include "loadgen/loadgen.h"
#include "rpc/fault.h"
#include "rpc/health.h"
#include "services/graph/node.h"
#include "services/graph/proto.h"
#include "services/graph/scenario.h"
#include "simkernel/sim_transport.h"
#include "simkernel/simclock.h"

namespace musuite {
namespace sim {

/** One simulated host: an unstarted server running one graph node. */
struct SimHost
{
    std::unique_ptr<rpc::Server> server;
    std::unique_ptr<graph::GraphNode> node;
};

/** One parent->child link in the built tree, addressable by where it
 *  sits in the scenario: `parentTier` is the parent's depth (so the
 *  link belongs to stage `parentTier` of the scenario), `childOffset`
 *  the child's index inside that parent's fan-out group. The chaos
 *  campaign (simkernel/chaos.h) targets links through this registry
 *  to install fault injectors or cut the link mid-run. */
struct LinkRef
{
    size_t parentTier = 0;
    size_t parentIndex = 0;
    uint32_t childOffset = 0;
    size_t childIndex = 0;
    SimChannel *channel = nullptr;
};

struct Topology
{
    /** tiers[0] holds the single root host; tiers[d] the hosts at
     *  depth d. Hosts own their nodes; nodes own child channels. */
    std::vector<std::vector<std::unique_ptr<SimHost>>> tiers;
    /** Fault injectors installed on faulted links (inspection). */
    std::vector<std::shared_ptr<rpc::FaultInjector>> injectors;
    /** Every parent->child link, in construction order. The channels
     *  are owned by the parent nodes; refs stay valid for the
     *  Topology's lifetime. */
    std::vector<LinkRef> links;
    /** Outlier-ejection policies, one per parent of a stage with
     *  ejectOutliers set (construction order) — inspect for
     *  ejections()/firstEjectAtNs() in benches and tests. */
    std::vector<std::shared_ptr<rpc::EjectionPolicy>> ejectionPolicies;
    /** Client-side channel into the root node. */
    std::shared_ptr<rpc::Channel> root;

    size_t
    nodeCount() const
    {
        size_t total = 0;
        for (const auto &tier : tiers)
            total += tier.size();
        return total;
    }

    graph::GraphNode &
    rootNode() const
    {
        return *tiers.front().front()->node;
    }
};

/**
 * Build the scenario's tree on `clock`. `root_link` shapes the
 * client->root link (constant 50us each way by default). All servers
 * are constructed under a ScopedClock binding `clock`, per the
 * SimChannel contract.
 */
Topology buildTopology(SimClock &clock,
                       const graph::GraphScenario &scenario,
                       SimLink root_link = {});

/** What a root call came back with, for callers that count more than
 *  the outcome: `reply` is the decoded reply when the call succeeded,
 *  default-constructed otherwise. */
using RootObserver = std::function<void(
    uint64_t seq, const Status &status, const graph::GraphReply &reply)>;

/**
 * Open-loop issuer for the topology's root, the sim twin of
 * harness::frontEndIssue. Request `seq` is GraphRequest{workId =
 * seq + 1} with a `deadline_ns` budget, two attempts and 2 ms
 * jittered backoff (jitter seed seed * 977 + 11 + seq). It reports
 * degraded when the root reply says so, and shed on
 * RESOURCE_EXHAUSTED; `observe`, when set, sees each completion
 * first. `topo` must outlive every call.
 */
OpenLoopLoadGen::AsyncIssue rootIssue(Topology &topo, uint64_t seed,
                                      int64_t deadline_ns,
                                      RootObserver observe = nullptr);

} // namespace sim
} // namespace musuite

#endif // MUSUITE_SIMKERNEL_TOPOLOGY_H
