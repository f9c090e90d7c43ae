/**
 * @file
 * Deep request-DAG benchmark on the sim topology builder.
 *
 * µSuite's services are one-mid-tier-deep; production request DAGs are
 * not. This bench instantiates the declarative 3-deep scenarios from
 * the graph scenario library (root -> 3 -> 9 -> 27 GraphNodes wired
 * through SimChannels with distribution-sampled link latencies) and
 * drives them with the load-shape library — a steady phase, a diurnal
 * cycle over a browned-out tree, and a flash crowd at 2x the leaf
 * tier's capacity over shedding leaves — entirely in virtual time, so
 * a multi-second storm over 40 servers costs milliseconds and replays
 * bit-for-bit under a fixed seed.
 *
 * Reported per phase: offered/completed traffic, goodput (answers
 * within the root deadline — by construction every completion, which
 * is itself an invariant: the budget decrements hop by hop, so no
 * request may complete after its root deadline), degraded-answer rate
 * (leaf brownouts surfacing three hops up), shed rate with pacing
 * hints, and the retry-amplification counter, which must stay zero
 * now that RESOURCE_EXHAUSTED hints survive multi-hop propagation.
 *
 * --smoke-json=PATH runs a shortened fixed workload and emits
 * BENCH_dag.json for tools/check.sh.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "loadgen/loadgen.h"
#include "services/graph/scenario.h"
#include "simkernel/topology.h"
#include "stats/counters.h"
#include "stats/histogram.h"

namespace musuite {
namespace bench {
namespace {

constexpr int64_t kMs = 1'000'000;

struct DagConfig
{
    uint64_t seed = 42;
    int64_t durationNs = 2'000'000'000; //!< Virtual seconds per phase.
    int64_t rootDeadlineNs = 50 * kMs;
};

/** One phase: a named scenario under a named load shape. */
struct PhaseSpec
{
    const char *label;
    graph::GraphScenario scenario;
    loadgen::LoadShape load;
};

struct PhaseResult
{
    std::string label;
    LoadResult load; //!< Shed = RESOURCE_EXHAUSTED at the root.
    uint32_t exhaustedWithHint = 0;
    uint32_t lateCompletions = 0; //!< Past the root deadline: must be 0.
    size_t leakedTimers = 0;
    double goodputQps = 0.0;
    DistributionSummary latency; //!< Of OK completions.
    uint64_t nodeSheds = 0;
    uint64_t retriesScheduled = 0;
    uint64_t retryAmplified = 0;

    size_t offered() const { return load.issued; }
    unsigned ok() const { return unsigned(load.completed); }
    unsigned exhausted() const { return unsigned(load.shed); }
    size_t lost() const { return load.issued - load.completed - load.errors; }
    double shedRate() const { return load.breakdown(0).shedRate(); }
};

PhaseResult
runPhase(const DagConfig &config, const PhaseSpec &spec)
{
    sim::SimClock clock;
    ScopedClock ambient(clock);
    sim::Topology topo = sim::buildTopology(clock, spec.scenario);

    OpenLoopLoadGen::Options load_options;
    load_options.shape = spec.load;
    load_options.durationNs = config.durationNs;
    load_options.seed = spec.scenario.seed * 131 + 7;
    OpenLoopLoadGen generator(load_options);

    const CounterSnapshot before = globalCounters().snapshot();
    PhaseResult phase;
    phase.label = spec.label;
    phase.load = generator.run(sim::rootIssue(
        topo, spec.scenario.seed, config.rootDeadlineNs,
        [&phase](uint64_t, const Status &status,
                 const graph::GraphReply &) {
            if (status.code() == StatusCode::ResourceExhausted &&
                status.retryAfterNs() > 0)
                phase.exhaustedWithHint++;
        })).front();
    clock.runUntilIdle();

    for (const RequestSpan &span : generator.spans()) {
        if (span.completed() && span.latencyNs() > config.rootDeadlineNs)
            phase.lateCompletions++;
    }
    phase.leakedTimers = clock.pendingTimers();
    phase.latency = phase.load.latency.summary();
    phase.goodputQps = config.durationNs > 0
                           ? double(phase.ok()) * 1e9 /
                                 double(config.durationNs)
                           : 0.0;
    const CounterSnapshot delta =
        CounterSet::diff(before, globalCounters().snapshot());
    phase.nodeSheds =
        CounterSet::valueOf(delta, "overload.queue_rejected");
    phase.retriesScheduled =
        CounterSet::valueOf(delta, "rpc.retry.scheduled");
    phase.retryAmplified =
        CounterSet::valueOf(delta, "rpc.call.retry_amplified");
    return phase;
}

/** The leaf tier's aggregate service capacity expressed as root QPS
 *  (every root request visits each leaf once, so leaf saturation is
 *  per-leaf capacity, independent of the tier width). */
double
leafCapacityQps(const graph::GraphScenario &scenario)
{
    const graph::StageSpec &leaves = scenario.stages.back();
    return double(leaves.workers) * 1e9 / double(leaves.computeNs);
}

std::vector<PhaseSpec>
makePhases(const DagConfig &config)
{
    std::vector<PhaseSpec> phases;

    // Steady: the unloaded full-tree baseline.
    {
        graph::GraphScenario scenario = graph::steadyDag(config.seed);
        phases.push_back({"steady_1x", scenario,
                          loadgen::LoadShape::constant(
                              0.5 * leafCapacityQps(scenario))});
    }

    // Brownout under a diurnal cycle: one slow leaf per group, load
    // swinging between 20% and 80% of leaf capacity per virtual "day".
    {
        graph::GraphScenario scenario =
            graph::brownoutDag(config.seed + 1);
        const double capacity = leafCapacityQps(scenario);
        phases.push_back(
            {"brownout_diurnal", scenario,
             loadgen::LoadShape::diurnal(0.2 * capacity, 0.8 * capacity,
                                         config.durationNs)});
    }

    // Retry storm: a flash crowd at 2x the (tiny) leaf capacity for
    // the middle half of the run.
    {
        graph::GraphScenario scenario =
            graph::retryStormDag(config.seed + 2);
        const double capacity = leafCapacityQps(scenario);
        phases.push_back(
            {"retry_storm_2x", scenario,
             loadgen::LoadShape::flashCrowd(
                 0.5 * capacity, 2.0 * capacity, config.durationNs / 4,
                 config.durationNs / 2)});
    }
    return phases;
}

void
printPhase(const PhaseResult &phase)
{
    std::printf("  %-18s offered=%6zu ok=%6u goodput=%7.0f qps "
                "degraded=%5.1f%% shed=%5.1f%% late=%u\n",
                phase.label.c_str(), phase.offered(), phase.ok(),
                phase.goodputQps, 100.0 * phase.load.degradedRate(),
                100.0 * phase.shedRate(), phase.lateCompletions);
    std::printf("                     ok-latency: %s\n",
                phase.latency.toString().c_str());
    std::printf("                     node_sheds=%llu retries=%llu "
                "retry_amplified=%llu hints=%u/%u\n",
                static_cast<unsigned long long>(phase.nodeSheds),
                static_cast<unsigned long long>(phase.retriesScheduled),
                static_cast<unsigned long long>(phase.retryAmplified),
                phase.exhaustedWithHint, phase.exhausted());
}

std::vector<PhaseResult>
runStorm(const DagConfig &config)
{
    std::printf("dag_storm: 3-deep DAG (1+3+9+27 nodes), root "
                "deadline=%.0fms, %.1fs virtual per phase, seed=%llu\n",
                double(config.rootDeadlineNs) * 1e-6,
                double(config.durationNs) * 1e-9,
                static_cast<unsigned long long>(config.seed));
    std::vector<PhaseResult> results;
    for (const PhaseSpec &spec : makePhases(config)) {
        results.push_back(runPhase(config, spec));
        printPhase(results.back());
    }
    return results;
}

/**
 * CI smoke: shortened phases, archived to BENCH_dag.json. Unlike the
 * wall-clock benches this runs in virtual time, so the gates can be
 * exact, not merely "not broken": every arrival completes exactly
 * once, nothing completes after its root deadline, every root-visible
 * shed carries a pacing hint, the storm phase keeps nonzero goodput
 * at 2x overload, and zero retries are amplified.
 */
int
runSmoke(const std::string &path, DagConfig config)
{
    config.durationNs = 500'000'000;
    const std::vector<PhaseResult> results = runStorm(config);

    bool broken = false;
    for (const PhaseResult &phase : results) {
        if (phase.ok() == 0 || phase.lost() != 0 ||
            phase.lateCompletions != 0 || phase.leakedTimers != 0 ||
            phase.retryAmplified != 0 ||
            phase.exhaustedWithHint != phase.exhausted()) {
            broken = true;
        }
    }

    FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
        std::fprintf(stderr, "dag_storm: cannot open %s\n",
                     path.c_str());
        return 1;
    }
    std::fprintf(out,
                 "{\n"
                 "  \"root_deadline_ns\": %lld,\n"
                 "  \"seed\": %llu,\n"
                 "  \"phases\": [\n",
                 static_cast<long long>(config.rootDeadlineNs),
                 static_cast<unsigned long long>(config.seed));
    for (size_t i = 0; i < results.size(); ++i) {
        const PhaseResult &phase = results[i];
        std::fprintf(
            out,
            "    {\"phase\": \"%s\", \"offered\": %zu, \"ok\": %u, "
            "\"goodput_qps\": %.0f, \"degraded_rate\": %.4f, "
            "\"shed_rate\": %.4f, \"late_completions\": %u, "
            "\"lost_completions\": %zu, \"node_sheds\": %llu, "
            "\"retries_scheduled\": %llu, \"retry_amplified\": %llu, "
            "\"sheds_with_hint\": %u, \"ok_p50_ns\": %lld, "
            "\"ok_p99_ns\": %lld}%s\n",
            phase.label.c_str(), phase.offered(), phase.ok(),
            phase.goodputQps, phase.load.degradedRate(), phase.shedRate(),
            phase.lateCompletions, phase.lost(),
            static_cast<unsigned long long>(phase.nodeSheds),
            static_cast<unsigned long long>(phase.retriesScheduled),
            static_cast<unsigned long long>(phase.retryAmplified),
            phase.exhaustedWithHint,
            static_cast<long long>(phase.latency.p50),
            static_cast<long long>(phase.latency.p99),
            i + 1 < results.size() ? "," : "");
    }
    std::fprintf(out,
                 "  ],\n"
                 "  \"broken\": %s\n"
                 "}\n",
                 broken ? "true" : "false");
    std::fclose(out);
    std::printf("dag_storm smoke: %zu phases -> %s (%s)\n",
                results.size(), path.c_str(),
                broken ? "BROKEN" : "ok");
    return broken ? 1 : 0;
}

} // namespace
} // namespace bench
} // namespace musuite

int
main(int argc, char **argv)
{
    using namespace musuite;
    using namespace musuite::bench;

    Flags flags(argc, argv);
    DagConfig config;
    config.seed = uint64_t(flags.num("seed", 42));
    config.durationNs =
        int64_t(flags.num("duration-ms", 2000)) * 1'000'000;
    config.rootDeadlineNs =
        int64_t(flags.num("deadline-ms", 50)) * 1'000'000;

    const std::string smoke = flags.str("smoke-json", "");
    if (!smoke.empty())
        return runSmoke(smoke, config);

    runStorm(config);
    return 0;
}
