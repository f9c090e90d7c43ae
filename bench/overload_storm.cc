/**
 * @file
 * Goodput-under-saturation benchmark for the overload-control layer.
 *
 * µSuite's saturation experiment (Fig. 9) drives the mid-tier past its
 * knee; this bench reports what happens *beyond* the knee, where the
 * interesting metric is goodput — responses delivered within the
 * client's deadline — rather than raw throughput. A single murpc
 * server (capacity = workers / service_time, independent of the
 * host's core count) takes open-loop Poisson load at 0.5x / 1x / 2x
 * its peak, in two configurations:
 *
 *  - vanilla: unbounded FIFO queue, no admission control, no wire
 *    deadlines. Every request eventually completes, but past
 *    saturation the queue grows without bound and open-loop latency
 *    (measured from the *scheduled* send time, the paper's
 *    coordinated-omission defence) grows with it: goodput collapses
 *    even though throughput stays at capacity.
 *
 *  - controlled: adaptive (gradient) admission control sheds excess
 *    load on arrival with RESOURCE_EXHAUSTED + retry-after, and the
 *    client runs a deadline with one retry paced by the retry-after
 *    hint. Accepted requests keep a bounded queue ahead of them, so
 *    goodput at 2x stays near peak and excess load turns into cheap
 *    explicit sheds.
 *
 * By default the storm runs in virtual time: an unstarted server on a
 * SimClock (the virtual-time station, serviceNs per request) behind a
 * SimChannel, driven by loadgen::arrivalSchedule, so the same --seed
 * replays byte for byte. --real runs it over loopback TCP instead,
 * with sleep-based handlers on a started server: the transport check.
 *
 * --smoke-json=PATH runs a shortened fixed workload, writes the
 * goodput/shed trajectory to PATH (the sim run is the committed
 * BENCH_overload.json) and exits 1 when a relation gate fails.
 */

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "base/clock.h"
#include "base/time_util.h"
#include "bench_common.h"
#include "loadgen/loadgen.h"
#include "loadgen/scenario.h"
#include "rpc/client.h"
#include "rpc/overload.h"
#include "rpc/server.h"
#include "simkernel/sim_transport.h"
#include "stats/counters.h"
#include "stats/histogram.h"

namespace musuite {
namespace bench {
namespace {

constexpr uint32_t kWork = 1;

struct StormConfig
{
    int64_t serviceNs = 2'000'000; //!< Per request (capacity knob).
    int workers = 4;
    int64_t deadlineNs = 20'000'000; //!< Goodput deadline D.
    int64_t durationNs = 1'000'000'000;
    std::vector<double> multipliers{0.5, 1.0, 2.0};
    bool real = false;  //!< Loopback TCP instead of virtual time.
    uint64_t seed = 42; //!< Arrival and jitter seed (sim only).

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
    CounterSnapshot overload;     //!< overload.* counter deltas.
};

/** The storm server: the same options on both transports (serviceNs
 *  only matters on a simulated clock). */
rpc::ServerOptions
stormServerOptions(const StormConfig &config, bool controlled)
{
    rpc::ServerOptions options;
    options.pollerThreads = 1;
    options.workerThreads = config.workers;
    options.serviceNs = config.serviceNs;
    options.name = controlled ? "ctl" : "van";
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
    return options;
}

/** Vanilla: plain, wait forever. Controlled: a deadline and one
 *  retry paced by the server's hint. */
rpc::CallOptions
stormCallOptions(const StormConfig &config, bool controlled)
{
    rpc::CallOptions options;
    if (controlled) {
        options.deadlineNs = config.deadlineNs;
        options.totalDeadlineNs = config.deadlineNs;
        options.maxAttempts = 2;
        options.backoffBaseNs = config.serviceNs;
    }
    return options;
}

RequestOutcome
outcomeOf(const Status &status)
{
    if (status.isOk())
        return RequestOutcome(true);
    if (status.code() == StatusCode::ResourceExhausted)
        return RequestOutcome::shedRequest();
    return RequestOutcome(false);
}

LoadResult
runRealPhase(const StormConfig &config, bool controlled,
             double multiplier)
{
    rpc::Server server(stormServerOptions(config, controlled));
    const int64_t service_ns = config.serviceNs;
    server.registerHandler(kWork, [service_ns](rpc::ServerCallPtr call) {
        // Sleep, don't spin: capacity is workers/service_time without
        // starving the client and loadgen on a small box.
        sleepForNanos(service_ns);
        call->respondOk("");
    });
    server.start();
    rpc::ClientOptions client_options;
    client_options.name = controlled ? "ctl-cli" : "van-cli";
    rpc::RpcClient client(server.port(), client_options);
    const rpc::CallOptions call_options =
        stormCallOptions(config, controlled);

    OpenLoopLoadGen::Options load_options;
    load_options.shape =
        loadgen::LoadShape::constant(config.peakQps() * multiplier);
    load_options.durationNs = config.durationNs;
    // Vanilla beyond saturation banks a backlog of roughly
    // (multiplier - 1) x duration worth of work; give the drain room
    // for all of it before calling the stragglers lost.
    load_options.drainTimeoutNs = 4 * config.durationNs + 2'000'000'000;
    OpenLoopLoadGen generator(load_options);

    return generator.run(
        [&](uint64_t, std::function<void(RequestOutcome)> done) {
            client.call(kWork, "", call_options,
                        [done = std::move(done)](const Status &status,
                                                 std::string_view) {
                            done(outcomeOf(status));
                        });
        }).front();
}

/**
 * The same phase in virtual time: one unstarted server whose station
 * models `workers` slots of serviceNs each, reached over a SimChannel
 * with default link latencies, one clock timer per scheduled arrival.
 * Latency runs from the scheduled arrival, as in real mode; the phase
 * ends when the last call completes.
 */
LoadResult
runSimPhase(const StormConfig &config, bool controlled, double multiplier)
{
    sim::SimClock clock;
    ScopedClock ambient(clock);
    rpc::Server server(stormServerOptions(config, controlled));
    server.registerHandler(kWork, [](rpc::ServerCallPtr call) {
        call->respondOk("");
    });
    sim::SimChannel channel(clock, server, sim::SimLink{}, "storm");
    rpc::CallOptions call_options = stormCallOptions(config, controlled);

    // Both modes of one multiplier see the same arrivals.
    const double qps = config.peakQps() * multiplier;
    const std::vector<int64_t> arrivals = loadgen::arrivalSchedule(
        loadgen::LoadShape::constant(qps), config.durationNs,
        config.seed * 131 + uint64_t(multiplier * 100));
    LoadResult result;
    result.issued = arrivals.size();
    result.offeredQps = qps;
    int64_t last_ns = config.durationNs;
    for (size_t i = 0; i < arrivals.size(); ++i) {
        const int64_t start = arrivals[i];
        call_options.backoffJitterSeed = config.seed * 977 + 11 + i;
        clock.schedule(start, [&, start, call_options] {
            channel.call(kWork, "", call_options,
                         [&, start](const Status &status,
                                    std::string_view) {
                             const int64_t now = clock.nowNanos();
                             last_ns = std::max(last_ns, now);
                             const RequestOutcome outcome =
                                 outcomeOf(status);
                             if (outcome.ok) {
                                 result.completed++;
                                 result.latency.record(now - start);
                             } else {
                                 result.errors++;
                                 if (outcome.shed)
                                     result.shed++;
                             }
                         });
        });
    }
    clock.runUntilIdle();
    result.elapsedNs = last_ns;
    result.achievedQps =
        double(result.completed) * 1e9 / double(result.elapsedNs);
    return result;
}

PhaseResult
runPhase(const StormConfig &config, bool controlled, double multiplier)
{
    const CounterSnapshot before = globalCounters().snapshot();
    const LoadResult result =
        config.real ? runRealPhase(config, controlled, multiplier)
                    : runSimPhase(config, controlled, multiplier);
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
    for (const auto &[name, count] :
         CounterSet::diff(before, globalCounters().snapshot())) {
        if (name.rfind("overload.", 0) == 0)
            phase.overload[name] = count;
    }
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
    for (const auto &[name, count] : phase.overload) {
        std::printf("             %s = %llu\n", name.c_str(),
                    static_cast<unsigned long long>(count));
    }
}

std::vector<PhaseResult>
runStorm(const StormConfig &config)
{
    std::vector<PhaseResult> phases;
    std::printf("overload_storm (%s): peak=%.0f qps (workers=%d x "
                "service=%.1fms), deadline=%.0fms\n",
                config.real ? "real, loopback TCP" : "sim",
                config.peakQps(), config.workers,
                double(config.serviceNs) * 1e-6,
                double(config.deadlineNs) * 1e-6);
    for (const bool controlled : {false, true}) {
        for (const double multiplier : config.multipliers) {
            phases.push_back(runPhase(config, controlled, multiplier));
            printPhase(phases.back());
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

unsigned long long
overloadCount(const PhaseResult &phase, const char *name)
{
    auto it = phase.overload.find(name);
    return it == phase.overload.end() ? 0 : it->second;
}

/**
 * Smoke mode: a shortened storm whose trajectory lands in `path`. The
 * sim run is exact and its file is committed (BENCH_overload.json);
 * the real run is noisy, so the gates check only relations with wide
 * margins. Either fails when
 *  - a phase produced no completions at all;
 *  - the controlled 2x goodput rate is not above the vanilla 2x rate:
 *    the overload layer no longer beats an unbounded queue;
 *  - the controlled 1x phase fails (not sheds) kFailedRateBound or
 *    more of its offered load: at peak the client's own machinery
 *    must not turn servable work into errors.
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
                 "  \"transport\": \"%s\",\n"
                 "  \"peak_qps\": %.0f,\n"
                 "  \"deadline_ns\": %lld,\n"
                 "  \"phases\": [\n",
                 config.real ? "real" : "sim", config.peakQps(),
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
            "\"accepted_p99_ns\": %lld, \"accepted_p999_ns\": %lld, "
            "\"admission_rejected\": %llu, "
            "\"queue_rejected\": %llu}%s\n",
            phase.mode.c_str(), phase.multiplier, phase.offeredQps,
            phase.achievedQps, phase.goodputQps,
            phase.breakdown.goodputRate(), phase.breakdown.shedRate(),
            failedRate(phase.breakdown),
            static_cast<long long>(phase.accepted.p50),
            static_cast<long long>(phase.accepted.p99),
            static_cast<long long>(phase.accepted.p999),
            overloadCount(phase, "overload.admission_rejected"),
            overloadCount(phase, "overload.queue_rejected"),
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
    config.real = flags.flag("real");
    config.seed = uint64_t(flags.num("seed", 42));

    const std::string smoke = flags.str("smoke-json", "");
    if (!smoke.empty())
        return runSmoke(smoke, config);

    runStorm(config);
    return 0;
}
