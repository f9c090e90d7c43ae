/**
 * @file
 * Goodput-under-saturation benchmark for the overload-control layer.
 *
 * µSuite's saturation experiment (Fig. 9) drives the mid-tier past its
 * knee; this bench reports what happens *beyond* the knee, where the
 * interesting metric is goodput — responses delivered within the
 * client's deadline — rather than raw throughput. A single murpc
 * server with sleep-based handlers (capacity = workers / service_time,
 * independent of the host's core count) takes open-loop Poisson load
 * at 0.5x / 1x / 2x its peak, in two configurations:
 *
 *  - vanilla: unbounded FIFO queue, no admission control, no wire
 *    deadlines. Every request eventually completes, but past
 *    saturation the queue grows without bound and open-loop latency
 *    (measured from the *scheduled* send time, the paper's
 *    coordinated-omission defence) grows with it: goodput collapses
 *    even though throughput stays at capacity.
 *
 *  - controlled: adaptive (gradient) admission control sheds excess
 *    load at the poller with RESOURCE_EXHAUSTED + retry-after, workers
 *    drop requests whose wire deadline budget expired in the queue,
 *    and the client runs a deadline with one retry paced by the
 *    retry-after hint. Accepted requests keep a bounded queue ahead
 *    of them, so goodput at 2x stays near peak and excess load turns
 *    into cheap explicit sheds.
 *
 * --smoke-json=PATH runs a shortened fixed workload and emits the
 * goodput/shed trajectory for tools/check.sh (BENCH_overload.json).
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "base/time_util.h"
#include "bench_common.h"
#include "loadgen/loadgen.h"
#include "rpc/client.h"
#include "rpc/overload.h"
#include "rpc/server.h"
#include "stats/counters.h"
#include "stats/histogram.h"

namespace musuite {
namespace bench {
namespace {

constexpr uint32_t kWork = 1;

struct StormConfig
{
    int64_t serviceNs = 2'000'000; //!< Sleep per request (capacity knob).
    int workers = 4;
    int64_t deadlineNs = 20'000'000; //!< Goodput deadline D.
    int64_t durationNs = 1'000'000'000;
    std::vector<double> multipliers{0.5, 1.0, 2.0};

    double
    peakQps() const
    {
        return double(workers) * 1e9 / double(serviceNs);
    }
};

/** One phase's results, for the report and the smoke JSON. */
struct PhaseResult
{
    std::string mode;
    double multiplier = 0.0;
    double offeredQps = 0.0;
    double achievedQps = 0.0;
    double goodputQps = 0.0;
    ShedAcceptBreakdown breakdown;
    DistributionSummary accepted; //!< Latency of completions only.
};

std::unique_ptr<rpc::Server>
makeStormServer(const StormConfig &config, bool controlled)
{
    rpc::ServerOptions options;
    options.pollerThreads = 1;
    options.workerThreads = config.workers;
    options.name = controlled ? "ctl" : "van";
    options.enforceQueueDeadline = controlled;
    if (controlled) {
        rpc::GradientAdmission::Options gradient;
        // Allow some queueing headroom beyond the worker count so the
        // limiter converges to "workers busy + short queue" rather
        // than oscillating against the exact service parallelism.
        gradient.initialLimit = double(config.workers) * 2.0;
        gradient.tolerance = double(config.deadlineNs) /
                             double(config.serviceNs) / 2.0;
        options.admission =
            std::make_shared<rpc::GradientAdmission>(gradient);
    }
    auto server = std::make_unique<rpc::Server>(options);
    const int64_t service_ns = config.serviceNs;
    server->registerHandler(kWork, [service_ns](rpc::ServerCallPtr call) {
        // Sleep, don't spin: capacity is workers/service_time without
        // starving the single-core CI box's client and loadgen.
        sleepForNanos(service_ns);
        call->respondOk("");
    });
    server->start();
    return server;
}

PhaseResult
runPhase(const StormConfig &config, bool controlled, double multiplier)
{
    auto server = makeStormServer(config, controlled);
    rpc::ClientOptions client_options;
    client_options.name = controlled ? "ctl-cli" : "van-cli";
    rpc::RpcClient client(server->port(), client_options);

    rpc::CallOptions call_options; // Vanilla: plain, wait forever.
    if (controlled) {
        call_options.deadlineNs = config.deadlineNs;
        call_options.totalDeadlineNs = config.deadlineNs;
        call_options.maxAttempts = 2;
        call_options.backoffBaseNs = config.serviceNs;
    }

    OpenLoopLoadGen::Options load_options;
    load_options.shape =
        loadgen::LoadShape::constant(config.peakQps() * multiplier);
    load_options.durationNs = config.durationNs;
    // Vanilla beyond saturation banks a backlog of roughly
    // (multiplier - 1) x duration worth of work; give the drain room
    // for all of it before calling the stragglers lost.
    load_options.drainTimeoutNs = 4 * config.durationNs + 2'000'000'000;
    OpenLoopLoadGen generator(load_options);

    const LoadResult result = generator.run(
        [&](uint64_t, std::function<void(RequestOutcome)> done) {
            client.call(kWork, "", call_options,
                        [done = std::move(done)](const Status &status,
                                                 std::string_view) {
                            if (status.isOk())
                                done(RequestOutcome(true));
                            else if (status.code() ==
                                     StatusCode::ResourceExhausted)
                                done(RequestOutcome::shedRequest());
                            else
                                done(RequestOutcome(false));
                        });
        }).front();

    PhaseResult phase;
    phase.mode = controlled ? "controlled" : "vanilla";
    phase.multiplier = multiplier;
    phase.offeredQps = result.offeredQps;
    phase.achievedQps = result.achievedQps;
    phase.breakdown = result.breakdown(config.deadlineNs);
    phase.goodputQps = result.elapsedNs > 0
                           ? double(phase.breakdown.goodput) * 1e9 /
                                 double(result.elapsedNs)
                           : 0.0;
    phase.accepted = result.latency.summary();
    return phase;
}

void
printPhase(const PhaseResult &phase)
{
    std::printf("  %-10s %4.1fx offered=%7.0f achieved=%7.0f "
                "goodput=%7.0f (%5.1f%%) shed=%5.1f%%\n",
                phase.mode.c_str(), phase.multiplier, phase.offeredQps,
                phase.achievedQps, phase.goodputQps,
                100.0 * phase.breakdown.goodputRate(),
                100.0 * phase.breakdown.shedRate());
    std::printf("             accepted: %s\n",
                phase.accepted.toString().c_str());
    std::printf("             %s\n",
                phase.breakdown.toString().c_str());
}

std::vector<PhaseResult>
runStorm(const StormConfig &config)
{
    std::vector<PhaseResult> phases;
    std::printf("overload_storm: peak=%.0f qps (workers=%d x "
                "service=%.1fms), deadline=%.0fms\n",
                config.peakQps(), config.workers,
                double(config.serviceNs) * 1e-6,
                double(config.deadlineNs) * 1e-6);
    for (const bool controlled : {false, true}) {
        for (const double multiplier : config.multipliers) {
            const CounterSnapshot before = globalCounters().snapshot();
            phases.push_back(runPhase(config, controlled, multiplier));
            printPhase(phases.back());
            const CounterSnapshot delta = CounterSet::diff(
                before, globalCounters().snapshot());
            for (const auto &[name, count] : delta) {
                if (name.rfind("overload.", 0) == 0) {
                    std::printf("             %s = %llu\n",
                                name.c_str(),
                                static_cast<unsigned long long>(count));
                }
            }
        }
    }
    return phases;
}

const PhaseResult *
findPhase(const std::vector<PhaseResult> &phases,
          const std::string &mode, double multiplier)
{
    for (const PhaseResult &phase : phases) {
        if (phase.mode == mode && phase.multiplier == multiplier)
            return &phase;
    }
    return nullptr;
}

/** Non-shed failures (deadline misses, errors) over offered load. */
double
failedRate(const ShedAcceptBreakdown &breakdown)
{
    return breakdown.offered
               ? double(breakdown.failed) / double(breakdown.offered)
               : 0.0;
}

/** Smoke gate on the controlled 1x phase's failedRate(). */
constexpr double kFailedRateBound = 0.08;

/**
 * CI smoke mode: a shortened storm whose trajectory lands in
 * BENCH_overload.json. A loaded CI box distorts absolute numbers, so
 * the gate checks only relations with wide margins. It fails when
 *  - a phase produced no completions at all;
 *  - the controlled 2x goodput rate is not above the vanilla 2x rate
 *    (measured ≈47% against ≈2%): the overload layer no longer beats
 *    an unbounded queue;
 *  - the controlled 1x phase fails (not sheds) kFailedRateBound or
 *    more of its offered load (measured 1–4%): at peak the client's
 *    own machinery must not turn servable work into errors.
 */
int
runSmoke(const std::string &path, StormConfig config)
{
    config.durationNs = 400'000'000;
    const std::vector<PhaseResult> phases = runStorm(config);

    bool broken = false;
    for (const PhaseResult &phase : phases) {
        if (phase.breakdown.completed == 0)
            broken = true;
    }
    const PhaseResult *vanilla2x = findPhase(phases, "vanilla", 2.0);
    const PhaseResult *controlled2x =
        findPhase(phases, "controlled", 2.0);
    const PhaseResult *controlled1x =
        findPhase(phases, "controlled", 1.0);
    if (vanilla2x == nullptr || controlled2x == nullptr ||
        controlled1x == nullptr) {
        broken = true;
    } else {
        if (controlled2x->breakdown.goodputRate() <=
            vanilla2x->breakdown.goodputRate())
            broken = true;
        if (failedRate(controlled1x->breakdown) >= kFailedRateBound)
            broken = true;
    }

    FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
        std::fprintf(stderr, "overload_storm: cannot open %s\n",
                     path.c_str());
        return 1;
    }
    std::fprintf(out,
                 "{\n"
                 "  \"peak_qps\": %.0f,\n"
                 "  \"deadline_ns\": %lld,\n"
                 "  \"phases\": [\n",
                 config.peakQps(),
                 static_cast<long long>(config.deadlineNs));
    for (size_t i = 0; i < phases.size(); ++i) {
        const PhaseResult &phase = phases[i];
        std::fprintf(
            out,
            "    {\"mode\": \"%s\", \"multiplier\": %.2f, "
            "\"offered_qps\": %.0f, \"achieved_qps\": %.0f, "
            "\"goodput_qps\": %.0f, \"goodput_rate\": %.4f, "
            "\"shed_rate\": %.4f, \"failed_rate\": %.4f, "
            "\"accepted_p50_ns\": %lld, "
            "\"accepted_p99_ns\": %lld, \"accepted_p999_ns\": %lld}%s\n",
            phase.mode.c_str(), phase.multiplier, phase.offeredQps,
            phase.achievedQps, phase.goodputQps,
            phase.breakdown.goodputRate(), phase.breakdown.shedRate(),
            failedRate(phase.breakdown),
            static_cast<long long>(phase.accepted.p50),
            static_cast<long long>(phase.accepted.p99),
            static_cast<long long>(phase.accepted.p999),
            i + 1 < phases.size() ? "," : "");
    }
    std::fprintf(
        out,
        "  ],\n"
        "  \"vanilla_2x_goodput_rate\": %.4f,\n"
        "  \"controlled_2x_goodput_rate\": %.4f,\n"
        "  \"controlled_2x_shed_rate\": %.4f,\n"
        "  \"controlled_1x_failed_rate\": %.4f\n"
        "}\n",
        vanilla2x != nullptr ? vanilla2x->breakdown.goodputRate() : 0.0,
        controlled2x != nullptr ? controlled2x->breakdown.goodputRate()
                                : 0.0,
        controlled2x != nullptr ? controlled2x->breakdown.shedRate()
                                : 0.0,
        controlled1x != nullptr ? failedRate(controlled1x->breakdown)
                                : 0.0);
    std::fclose(out);
    std::printf("overload_storm smoke: controlled2x_goodput=%.1f%% "
                "vanilla2x_goodput=%.1f%% controlled1x_failed=%.1f%% "
                "-> %s\n",
                controlled2x != nullptr
                    ? 100.0 * controlled2x->breakdown.goodputRate()
                    : 0.0,
                vanilla2x != nullptr
                    ? 100.0 * vanilla2x->breakdown.goodputRate()
                    : 0.0,
                controlled1x != nullptr
                    ? 100.0 * failedRate(controlled1x->breakdown)
                    : 0.0,
                path.c_str());
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
    StormConfig config;
    config.serviceNs = int64_t(flags.num("service-us", 2000)) * 1000;
    config.workers = int(flags.num("workers", 4));
    config.deadlineNs = int64_t(flags.num("deadline-ms", 20)) * 1'000'000;
    config.durationNs =
        int64_t(flags.num("duration-ms", 1000)) * 1'000'000;
    config.multipliers = flags.numList("mults", {0.5, 1.0, 2.0});

    const std::string smoke = flags.str("smoke-json", "");
    if (!smoke.empty())
        return runSmoke(smoke, config);

    runStorm(config);
    return 0;
}
