/**
 * @file
 * Implementation of the sim topology builder.
 */

#include "simkernel/topology.h"

#include <algorithm>
#include <string>
#include <utility>

#include "base/clock.h"
#include "base/logging.h"

namespace musuite {
namespace sim {

namespace {

/** Deterministic per-entity seed: splitmix-style finalizer over the
 *  scenario seed and the entity's (domain, index) coordinates. */
uint64_t
mixSeed(uint64_t seed, uint64_t domain, uint64_t index)
{
    uint64_t x = seed ^ (domain * 0x9E3779B97F4A7C15ull) ^
                 (index * 0xBF58476D1CE4E5B9ull);
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBull;
    x ^= x >> 31;
    return x | 1; // Never zero (0 disables seeded samplers).
}

SimLink
toSimLink(const graph::LatencySpec &spec, uint64_t seed)
{
    SimLink link;
    link.requestLatencyNs = spec.baseNs;
    link.responseLatencyNs = spec.baseNs;
    link.jitterNs = spec.jitterNs;
    link.tailProb = spec.tailProb;
    link.tailNs = spec.tailNs;
    // Constant links keep seed 0: byte-compatible with legacy replays.
    link.seed =
        (spec.jitterNs > 0 || spec.tailProb > 0.0) ? seed : 0;
    return link;
}

/** The fan-out policy a parent applies to this stage's legs. */
FanoutPolicy
legPolicy(const graph::StageSpec &stage, uint64_t jitter_seed)
{
    FanoutPolicy policy;
    policy.quorumFraction = stage.quorumFraction;
    policy.leg.deadlineNs = stage.legDeadlineNs;
    policy.leg.totalDeadlineNs = stage.legTotalDeadlineNs;
    policy.leg.maxAttempts = stage.maxAttempts;
    policy.leg.backoffBaseNs = stage.backoffBaseNs;
    policy.leg.backoffJitterSeed = jitter_seed;
    return policy;
}

} // namespace

Topology
buildTopology(SimClock &clock, const graph::GraphScenario &scenario,
              SimLink root_link)
{
    MUSUITE_CHECK(!scenario.stages.empty())
        << "scenario '" << scenario.name << "' has no stages";
    // Servers and nodes bind the ambient clock at construction.
    ScopedClock ambient(clock);

    Topology topo;
    const size_t depth = scenario.stages.size();
    topo.tiers.resize(depth + 1);

    std::vector<size_t> width(depth + 1, 1);
    for (size_t d = 0; d < depth; ++d) {
        MUSUITE_CHECK(scenario.stages[d].fanout >= 1)
            << "stage " << d << " has zero fan-out";
        width[d + 1] = width[d] * scenario.stages[d].fanout;
    }

    // Bottom-up: children must exist before the parent's channels.
    for (size_t d = depth + 1; d-- > 0;) {
        topo.tiers[d].resize(width[d]);
        for (size_t i = 0; i < width[d]; ++i) {
            auto host = std::make_unique<SimHost>();
            rpc::ServerOptions server_options;
            server_options.name =
                "g" + std::to_string(d) + "." + std::to_string(i);
            graph::NodeOptions node_options;
            node_options.seed = mixSeed(scenario.seed, 100 + d, i);
            if (d == 0) {
                server_options.serviceNs = scenario.rootComputeNs;
                server_options.workerThreads = int(scenario.rootWorkers);
                server_options.queueCapacity =
                    scenario.rootQueueCapacity;
            } else {
                const graph::StageSpec &stage =
                    scenario.stages[d - 1];
                server_options.serviceNs = stage.computeNs;
                server_options.workerThreads = int(stage.workers);
                server_options.queueCapacity = stage.queueCapacity;
                node_options.cacheHitRatio = stage.cacheHitRatio;
            }
            host->server =
                std::make_unique<rpc::Server>(server_options);

            std::vector<std::shared_ptr<rpc::Channel>> children;
            if (d < depth) {
                const graph::StageSpec &child_stage =
                    scenario.stages[d];
                node_options.fanout = legPolicy(
                    child_stage, mixSeed(scenario.seed, 300 + d, i));
                if (child_stage.ejectOutliers) {
                    rpc::EjectionPolicy::Options ejection_options;
                    // Quorum soundness: never allow ejecting into the
                    // quorum — cap the ejectable fraction at what the
                    // fan-out can lose and still fire.
                    if (child_stage.quorumFraction > 0.0 &&
                        child_stage.quorumFraction < 1.0) {
                        ejection_options.maxEjectedFraction = std::min(
                            ejection_options.maxEjectedFraction,
                            1.0 - child_stage.quorumFraction);
                    }
                    // Binds the ambient (sim) clock via ScopedClock.
                    auto policy =
                        std::make_shared<rpc::EjectionPolicy>(
                            ejection_options);
                    node_options.fanout.ejection = policy;
                    topo.ejectionPolicies.push_back(
                        std::move(policy));
                }
                children.reserve(child_stage.fanout);
                for (uint32_t c = 0; c < child_stage.fanout; ++c) {
                    const size_t child_index =
                        i * child_stage.fanout + c;
                    SimHost &child = *topo.tiers[d + 1][child_index];
                    auto channel = std::make_shared<SimChannel>(
                        clock, *child.server,
                        toSimLink(child_stage.link,
                                  mixSeed(scenario.seed, 500 + d,
                                          child_index)),
                        server_options.name + "->g" +
                            std::to_string(d + 1) + "." +
                            std::to_string(child_index));
                    const graph::FaultShape &fault =
                        child_stage.fault;
                    if (fault.enabled() &&
                        (fault.onlyChild < 0 ||
                         uint32_t(fault.onlyChild) == c)) {
                        rpc::FaultSpec spec;
                        spec.errorProb = fault.errorProb;
                        spec.dropRequestProb = fault.dropRequestProb;
                        spec.delayRequestProb =
                            fault.delayRequestProb;
                        spec.delayNs = fault.delayNs;
                        spec.seed = mixSeed(scenario.seed, 700 + d,
                                            child_index);
                        auto injector =
                            std::make_shared<rpc::FaultInjector>(
                                spec);
                        channel->setFaultInjector(injector);
                        topo.injectors.push_back(std::move(injector));
                    }
                    topo.links.push_back(
                        {d, i, c, child_index, channel.get()});
                    children.push_back(std::move(channel));
                }
            }

            host->node = std::make_unique<graph::GraphNode>(
                std::move(children), std::move(node_options));
            host->node->registerWith(*host->server);
            topo.tiers[d][i] = std::move(host);
        }
    }

    topo.root = std::make_shared<SimChannel>(
        clock, *topo.tiers[0][0]->server, root_link, "client->root");
    return topo;
}

OpenLoopLoadGen::AsyncIssue
rootIssue(Topology &topo, uint64_t seed, int64_t deadline_ns,
          RootObserver observe)
{
    rpc::CallOptions options;
    options.totalDeadlineNs = deadline_ns;
    options.deadlineNs = deadline_ns;
    options.maxAttempts = 2;
    options.backoffBaseNs = 2'000'000;
    options.backoffJitter = 0.2;
    auto observer = std::make_shared<const RootObserver>(std::move(observe));
    return [&topo, seed, options, observer](
               uint64_t seq, std::function<void(RequestOutcome)> done) {
        graph::GraphRequest request;
        request.workId = seq + 1;
        rpc::CallOptions call_options = options;
        call_options.backoffJitterSeed = seed * 977 + 11 + seq;
        topo.root->call(
            graph::kProcess, encodeMessage(request), call_options,
            [seq, observer, done = std::move(done)](
                const Status &status, std::string_view payload) {
                graph::GraphReply reply;
                if (!status.isOk() || !decodeMessage(payload, reply))
                    reply = graph::GraphReply{};
                if (*observer)
                    (*observer)(seq, status, reply);
                if (status.code() == StatusCode::ResourceExhausted)
                    done(RequestOutcome::shedRequest());
                else
                    done(RequestOutcome(status.isOk(), reply.degraded));
            });
    };
}

} // namespace sim
} // namespace musuite
