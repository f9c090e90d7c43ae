/**
 * @file
 * Deterministic chaos campaign over the 3-deep sim DAG: gray failures
 * injected and cleared in virtual time, with and without outlier
 * ejection.
 *
 * Each phase runs the grayDag scenario (root -> 3 -> 9 -> 27, leaf
 * fan-outs at 2/3 quorum) under constant load through a three-window
 * timeline: a clean warmup that establishes baseline goodput, a fault
 * window in which a ChaosCampaign installs one gray shape — zombie,
 * slow-ramp, flap, or asymmetric partial partition — on child 0 of
 * every leaf group, and a recovery window after the fault clears.
 * Every shape runs twice, with outlier ejection armed and as an
 * ejection-free ablation baseline, so the report is the paired
 * experiment: p99 and fault-window goodput with vs. without ejection,
 * plus time-to-detect (first ejection after injection) and
 * time-to-recover (goodput back to >= 95% of the warmup baseline,
 * sustained).
 *
 * Everything runs on one SimClock from counter-rule fault shapes, so
 * a multi-second storm over 40 servers replays bit-for-bit and the
 * smoke gates can be exact: every arrival completes exactly once, no
 * timers leak, ejection never starves the quorum (fault-window
 * goodput stays nonzero), ejection detects and recovers within
 * bounds, and beats the ablation baseline's p99 on the
 * deadline-burning shapes (zombie, slow-ramp).
 *
 * --smoke-json=PATH runs a shortened fixed workload and emits
 * BENCH_chaos.json for tools/check.sh.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "loadgen/loadgen.h"
#include "services/graph/scenario.h"
#include "simkernel/chaos.h"
#include "simkernel/topology.h"
#include "stats/counters.h"
#include "stats/histogram.h"
#include "stats/recovery.h"

namespace musuite {
namespace bench {
namespace {

constexpr int64_t kMs = 1'000'000;

struct ChaosConfig
{
    uint64_t seed = 42;
    double qps = 3000.0;
    int64_t warmupNs = 600 * kMs;   //!< Clean baseline window.
    int64_t faultNs = 600 * kMs;    //!< Fault active window.
    int64_t recoveryNs = 800 * kMs; //!< Window after the fault clears.
    int64_t rootDeadlineNs = 50 * kMs;
    /** Goodput must return to 95% of baseline and hold for this. */
    int64_t recoverySustainNs = 100 * kMs;
    /** ...within this after the fault clears (ejection runs). */
    int64_t recoveryBoundNs = 400 * kMs;

    int64_t
    durationNs() const
    {
        return warmupNs + faultNs + recoveryNs;
    }
};

struct PhaseResult
{
    std::string label;
    bool ejection = false;
    size_t offered = 0;
    uint32_t ok = 0;
    uint32_t lateCompletions = 0; //!< Past the root deadline: must be 0.
    size_t lostCompletions = 0;
    size_t leakedTimers = 0;
    uint32_t faultWindowOk = 0; //!< Quorum-starvation guard: > 0.
    double baselineQps = 0.0;   //!< Warmup-window clean goodput.
    int64_t timeToDetectNs = -1;
    int64_t timeToRecoverNs = -1;
    DistributionSummary latency; //!< Of OK completions, whole run.
    /** OK completions arriving in the settled second half of the
     *  fault window — past the detection transient, so this is the
     *  steady-state cost of living with the fault, where ejection's
     *  p99 win over the ablation baseline must show. */
    DistributionSummary faultLatency;
    uint64_t healthEjected = 0;
    uint64_t healthReinstated = 0;
    uint64_t healthProbes = 0;
    uint64_t outlierSkipped = 0;
};

PhaseResult
runPhase(const ChaosConfig &config, const char *label,
         sim::ChaosEvent::Kind kind, bool ejection)
{
    sim::SimClock clock;
    ScopedClock ambient(clock);
    const graph::GraphScenario scenario =
        graph::grayDag(config.seed, ejection);
    sim::Topology topo = sim::buildTopology(clock, scenario);

    // One gray fault on child 0 of every leaf group, injected after
    // warmup and cleared one fault window later.
    sim::ChaosCampaign campaign(clock, topo);
    sim::ChaosEvent event;
    event.kind = kind;
    event.tier = scenario.stages.size() - 1; // Links into the leaves.
    event.onlyChild = 0;
    event.injectAtNs = config.warmupNs;
    event.clearAtNs = config.warmupNs + config.faultNs;
    // Steep enough that the ramp crosses the 10ms leg deadline within
    // the first few dozen calls: the peer passes through the whole
    // gray regime (slow-but-successful, then deadline-burning) well
    // inside the fault window instead of straddling its end.
    event.rampPerCallNs = 500'000;
    campaign.arm({event});

    OpenLoopLoadGen::Options load_options;
    load_options.shape = loadgen::LoadShape::constant(config.qps);
    load_options.durationNs = config.durationNs();
    load_options.seed = config.seed * 131 + 7;
    OpenLoopLoadGen generator(load_options);

    const CounterSnapshot before = globalCounters().snapshot();
    const LoadResult load =
        generator
            .run(sim::rootIssue(topo, config.seed, config.rootDeadlineNs))
            .front();
    clock.runUntilIdle();

    PhaseResult phase;
    phase.label = label;
    phase.ejection = ejection;
    phase.offered = load.issued;
    phase.ok = uint32_t(load.completed);
    phase.lostCompletions = load.issued - load.completed - load.errors;
    phase.leakedTimers = clock.pendingTimers();
    phase.latency = load.latency.summary();

    const int64_t fault_from_ns = event.injectAtNs;
    const int64_t fault_to_ns = event.clearAtNs;
    // Steady-fault-state window: the second half of the fault window,
    // past the detection transient (the first requests of any fault
    // necessarily burn deadlines before health evidence accumulates).
    const int64_t settled_from_ns =
        fault_from_ns + config.faultNs / 2;
    Histogram fault_latency;
    GoodputTracker goodput(10 * kMs);
    for (const RequestSpan &span : generator.spans()) {
        if (!span.completed())
            continue;
        const bool in_time = span.latencyNs() <= config.rootDeadlineNs;
        if (!in_time)
            phase.lateCompletions++;
        // "Good" = a clean answer in time: degraded (quorum-carried)
        // completions keep the request alive but don't count as
        // recovered goodput, so time-to-recover measures the return
        // of *whole* answers, including reintroduction churn.
        goodput.record(span.completedNs, span.outcome.ok &&
                                             !span.outcome.degraded &&
                                             in_time);
        if (!span.outcome.ok || span.scheduledNs >= fault_to_ns)
            continue;
        if (span.scheduledNs >= fault_from_ns)
            phase.faultWindowOk++;
        if (span.scheduledNs >= settled_from_ns)
            fault_latency.record(span.latencyNs());
    }
    phase.faultLatency = fault_latency.summary();

    // Baseline over the settled second half of warmup; recovery =
    // first sustained return to 95% of it after the fault clears.
    phase.baselineQps =
        goodput.goodputQps(config.warmupNs / 2, config.warmupNs);
    phase.timeToRecoverNs = goodput.recoveryTimeNs(
        fault_to_ns, phase.baselineQps, 0.95,
        config.recoverySustainNs);

    // Detection: the first ejection anywhere in the tree after the
    // fault landed (firstEjectAtNs — later ejections are
    // reintroduction churn, not detection).
    for (const auto &policy : topo.ejectionPolicies) {
        const int64_t ejected_at = policy->firstEjectAtNs();
        if (ejected_at < fault_from_ns)
            continue;
        const int64_t detect = ejected_at - fault_from_ns;
        if (phase.timeToDetectNs < 0 || detect < phase.timeToDetectNs)
            phase.timeToDetectNs = detect;
    }

    const CounterSnapshot delta =
        CounterSet::diff(before, globalCounters().snapshot());
    phase.healthEjected = CounterSet::valueOf(delta, "health.ejected");
    phase.healthReinstated =
        CounterSet::valueOf(delta, "health.reinstated");
    phase.healthProbes = CounterSet::valueOf(delta, "health.probe_sent");
    phase.outlierSkipped =
        CounterSet::valueOf(delta, "fanout.outlier_skipped");
    MUSUITE_CHECK(campaign.faultsInjected() == 1 &&
                  campaign.faultsCleared() == 1)
        << "chaos schedule did not execute";
    return phase;
}

struct Shape
{
    const char *label;
    sim::ChaosEvent::Kind kind;
    /** Shapes whose fault burns deadlines: ejection must win on p99. */
    bool gateP99 = false;
};

const Shape kShapes[] = {
    {"zombie", sim::ChaosEvent::Kind::Zombie, true},
    {"slow_ramp", sim::ChaosEvent::Kind::SlowRamp, true},
    {"flap", sim::ChaosEvent::Kind::Flap, false},
    {"partition", sim::ChaosEvent::Kind::PartialPartition, false},
};

void
printPhase(const PhaseResult &phase)
{
    std::printf(
        "  %-10s %-8s ok=%6u/%zu faultOk=%5u detect=%7.1fms "
        "recover=%7.1fms p99=%7.2fms faultP99=%7.2fms ejected=%llu "
        "reinstated=%llu\n",
        phase.label.c_str(), phase.ejection ? "eject" : "baseline",
        phase.ok, phase.offered, phase.faultWindowOk,
        phase.timeToDetectNs < 0 ? -1.0
                                 : double(phase.timeToDetectNs) * 1e-6,
        phase.timeToRecoverNs < 0
            ? -1.0
            : double(phase.timeToRecoverNs) * 1e-6,
        double(phase.latency.p99) * 1e-6,
        double(phase.faultLatency.p99) * 1e-6,
        static_cast<unsigned long long>(phase.healthEjected),
        static_cast<unsigned long long>(phase.healthReinstated));
}

std::vector<PhaseResult>
runStorm(const ChaosConfig &config)
{
    std::printf("chaos_storm: grayDag (1+3+9+27 nodes, leaf quorum "
                "2/3), %.0f qps, warmup/fault/recovery = "
                "%.0f/%.0f/%.0fms virtual, seed=%llu\n",
                config.qps, double(config.warmupNs) * 1e-6,
                double(config.faultNs) * 1e-6,
                double(config.recoveryNs) * 1e-6,
                static_cast<unsigned long long>(config.seed));
    std::vector<PhaseResult> results;
    for (const Shape &shape : kShapes) {
        for (const bool ejection : {true, false}) {
            results.push_back(
                runPhase(config, shape.label, shape.kind, ejection));
            printPhase(results.back());
        }
    }
    return results;
}

/**
 * CI smoke: shortened windows, archived to BENCH_chaos.json. Virtual
 * time makes the gates exact: every arrival completes exactly once
 * with no leaked timers and nothing past the root deadline; the
 * quorum survives every fault (fault-window goodput > 0, with and
 * without ejection); every ejection run detects the fault and
 * recovers to 95% of baseline within the bound after it clears; and
 * on the deadline-burning shapes (zombie, slow-ramp) ejection beats
 * the ablation baseline's p99.
 */
int
runSmoke(const std::string &path, ChaosConfig config)
{
    config.warmupNs = 300 * kMs;
    config.faultNs = 300 * kMs;
    config.recoveryNs = 400 * kMs;
    config.recoveryBoundNs = 250 * kMs;
    const std::vector<PhaseResult> results = runStorm(config);

    bool broken = false;
    for (size_t i = 0; i < results.size(); ++i) {
        const PhaseResult &phase = results[i];
        if (phase.ok == 0 || phase.lostCompletions != 0 ||
            phase.lateCompletions != 0 || phase.leakedTimers != 0 ||
            phase.faultWindowOk == 0) {
            broken = true;
        }
        if (phase.ejection &&
            (phase.healthEjected == 0 || phase.timeToDetectNs < 0 ||
             phase.timeToDetectNs >= config.faultNs ||
             phase.timeToRecoverNs < 0 ||
             phase.timeToRecoverNs > config.recoveryBoundNs)) {
            broken = true;
        }
    }
    // Paired runs: kShapes order, ejection first then baseline. The
    // win must show in the settled fault window (the whole-run p99 of
    // both arms is dominated by the unavoidable detection transient).
    for (size_t s = 0; s < sizeof(kShapes) / sizeof(kShapes[0]); ++s) {
        if (!kShapes[s].gateP99)
            continue;
        const PhaseResult &eject = results[2 * s];
        const PhaseResult &baseline = results[2 * s + 1];
        if (eject.faultLatency.p99 >= baseline.faultLatency.p99)
            broken = true;
    }

    FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
        std::fprintf(stderr, "chaos_storm: cannot open %s\n",
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
            "    {\"phase\": \"%s\", \"ejection\": %s, "
            "\"offered\": %zu, \"ok\": %u, \"fault_window_ok\": %u, "
            "\"baseline_qps\": %.0f, \"time_to_detect_ns\": %lld, "
            "\"time_to_recover_ns\": %lld, \"ok_p50_ns\": %lld, "
            "\"ok_p99_ns\": %lld, \"fault_ok_p99_ns\": %lld, "
            "\"late_completions\": %u, "
            "\"lost_completions\": %zu, \"health_ejected\": %llu, "
            "\"health_reinstated\": %llu, \"health_probes\": %llu, "
            "\"outlier_skipped\": %llu}%s\n",
            phase.label.c_str(), phase.ejection ? "true" : "false",
            phase.offered, phase.ok, phase.faultWindowOk,
            phase.baselineQps,
            static_cast<long long>(phase.timeToDetectNs),
            static_cast<long long>(phase.timeToRecoverNs),
            static_cast<long long>(phase.latency.p50),
            static_cast<long long>(phase.latency.p99),
            static_cast<long long>(phase.faultLatency.p99),
            phase.lateCompletions, phase.lostCompletions,
            static_cast<unsigned long long>(phase.healthEjected),
            static_cast<unsigned long long>(phase.healthReinstated),
            static_cast<unsigned long long>(phase.healthProbes),
            static_cast<unsigned long long>(phase.outlierSkipped),
            i + 1 < results.size() ? "," : "");
    }
    std::fprintf(out,
                 "  ],\n"
                 "  \"broken\": %s\n"
                 "}\n",
                 broken ? "true" : "false");
    std::fclose(out);
    std::printf("chaos_storm smoke: %zu phases -> %s (%s)\n",
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
    ChaosConfig config;
    config.seed = uint64_t(flags.num("seed", 42));
    config.qps = double(flags.num("qps", 3000));
    config.warmupNs =
        int64_t(flags.num("warmup-ms", 600)) * 1'000'000;
    config.faultNs = int64_t(flags.num("fault-ms", 600)) * 1'000'000;
    config.recoveryNs =
        int64_t(flags.num("recovery-ms", 800)) * 1'000'000;
    config.rootDeadlineNs =
        int64_t(flags.num("deadline-ms", 50)) * 1'000'000;

    const std::string smoke = flags.str("smoke-json", "");
    if (!smoke.empty())
        return runSmoke(smoke, config);

    runStorm(config);
    return 0;
}
