/**
 * @file
 * Declarative request-DAG scenarios: topologies as data, not code.
 *
 * A GraphScenario describes an N-tier deployment tier by tier — how
 * many children each node fans out to, the per-node compute/queue
 * model, the cache hit ratio, the latency *distribution* of the links
 * into the tier, the per-leg resilience policy, and an optional fault
 * shape (slow-leaf brownout, shedding storm). The spec is plain data:
 * `sim::buildTopology` instantiates it as real GraphNode servers wired
 * through SimChannels on one SimClock, and `bench/dag_storm` plus
 * `tests/sim_replay_test` drive the same specs, so a scenario added
 * here is immediately benchable and replay-testable.
 */

#ifndef MUSUITE_SERVICES_GRAPH_SCENARIO_H
#define MUSUITE_SERVICES_GRAPH_SCENARIO_H

#include <cstdint>
#include <string>
#include <vector>

namespace musuite {
namespace graph {

/** Latency distribution of one tier's inbound links (virtual ns).
 *  jitter/tail mirror sim::SimLink: uniform jitter in [0, jitterNs)
 *  plus a tailNs excursion with probability tailProb. */
struct LatencySpec
{
    int64_t baseNs = 50'000;
    int64_t jitterNs = 0;
    double tailProb = 0.0;
    int64_t tailNs = 0;
};

/** Deterministic fault shape applied to one tier's inbound links. */
struct FaultShape
{
    double errorProb = 0.0;        //!< Fail a request outright.
    double dropRequestProb = 0.0;  //!< Blackhole a request.
    double delayRequestProb = 0.0; //!< Delay a request...
    int64_t delayNs = 0;           //!< ...by this much.
    /**
     * -1 = apply to every child in the tier. Otherwise only the
     * child with this index inside each parent's group is faulted —
     * the single-slow-leaf brownout shape.
     */
    int32_t onlyChild = -1;

    bool
    enabled() const
    {
        return errorProb > 0.0 || dropRequestProb > 0.0 ||
               delayRequestProb > 0.0;
    }
};

/**
 * One tier of the DAG, describing the nodes at this depth and the
 * links from the tier above. stages[0] is the tier directly below the
 * root; the last stage's nodes are leaves (no downstream fan-out).
 */
struct StageSpec
{
    /** Children per parent node (tier width multiplier). */
    uint32_t fanout = 3;

    // --- per-node compute/queue model: the hosting server's station
    // (ServerOptions serviceNs / workerThreads / queueCapacity), plus
    // the node's cache share (NodeOptions::cacheHitRatio) -------------
    int64_t computeNs = 100'000;
    uint32_t workers = 4;
    uint32_t queueCapacity = 64;
    double cacheHitRatio = 0.0;

    // --- links from the parent tier into this tier -------------------
    LatencySpec link;
    FaultShape fault;

    // --- per-leg resilience policy at the *parent's* fan-out ---------
    double quorumFraction = 1.0;
    int64_t legDeadlineNs = 0;
    int64_t legTotalDeadlineNs = 0;
    int maxAttempts = 1;
    int64_t backoffBaseNs = 1'000'000;
    /**
     * Give every parent of this tier an outlier-ejection policy
     * (rpc/health.h) over its children. The builder caps the policy's
     * maxEjectedFraction at 1 - quorumFraction when a quorum is set,
     * so ejection can never starve the fan-out's quorum.
     */
    bool ejectOutliers = false;
};

struct GraphScenario
{
    std::string name = "dag";
    /** Master seed: node cache draws, link samplers, and fault
     *  injectors all derive from it, so (spec, seed) fully
     *  determines a replay. */
    uint64_t seed = 1;
    std::vector<StageSpec> stages;

    // --- the root (front-end) node's own compute model ---------------
    int64_t rootComputeNs = 20'000;
    uint32_t rootWorkers = 8;
    uint32_t rootQueueCapacity = 128;

    /** Total node count of the instantiated tree, root included. */
    size_t nodeCount() const;
    /** Nodes in tier `depth` (0 = the single root). */
    size_t tierWidth(size_t depth) const;
};

// --- named scenario library ------------------------------------------
// Shared by bench/dag_storm and tests/sim_replay_test so benchmarks
// and replay invariants exercise the exact same topologies.

/** 3-deep, fan-out 3 per stage, modest load, no faults. */
GraphScenario steadyDag(uint64_t seed);

/** 3-deep with one persistently slow leaf per group (brownout) and a
 *  tail-heavy leaf link distribution. */
GraphScenario brownoutDag(uint64_t seed);

/** 3-deep with tiny leaf queues that shed under pressure: the
 *  retry-after propagation / retry-amplification scenario. */
GraphScenario retryStormDag(uint64_t seed);

/**
 * 3-deep gray-failure testbed: leaf fan-outs run at quorum 2/3 with
 * outlier ejection armed (when `eject_outliers`), and carry no static
 * faults — the chaos campaign (simkernel/chaos.h) injects zombie /
 * slow-ramp / flap / partition shapes onto the leaf links at runtime.
 * The eject_outliers=false variant is the ablation baseline
 * bench/chaos_storm compares p99 against.
 */
GraphScenario grayDag(uint64_t seed, bool eject_outliers = true);

} // namespace graph
} // namespace musuite

#endif // MUSUITE_SERVICES_GRAPH_SCENARIO_H
