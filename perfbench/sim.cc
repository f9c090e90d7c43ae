/**
 * @file
 * The sim_gray_dag workload: the depth-3 grayDag scenario (root -> 3
 * -> 9 -> 27, leaf quorum, outlier ejection on) on one SimClock, under
 * a diurnal arrival schedule, while a ChaosCampaign turns child 0 of
 * every leaf group into a zombie and later into a slow-ramp peer.
 *
 * One campaign is repeated until the time budget is spent. Every
 * repetition must produce the same virtual-time outcome, bit for bit;
 * the wall-clock cost of a repetition is what the run measures.
 */

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "base/clock.h"
#include "base/time_util.h"
#include "bench.h"
#include "loadgen/scenario.h"
#include "services/graph/proto.h"
#include "services/graph/scenario.h"
#include "simkernel/chaos.h"
#include "simkernel/simclock.h"
#include "simkernel/topology.h"
#include "stats/counters.h"

namespace perfbench {
namespace {

using namespace musuite;

constexpr int64_t kDurationNs = 2 * kSec;
constexpr int64_t kRootDeadlineNs = 50 * kMs;
constexpr double kTroughQps = 1500.0;
constexpr double kCrestQps = 4500.0;
/** Replayed leaf calls in the traced run. */
constexpr size_t kReplay = 300;
/** One setup_s sample times this many builds back to back: one build
 *  takes tens of µs, too short to time steadily on its own. */
constexpr int kSetupBatch = 16;

std::vector<sim::ChaosEvent>
campaignEvents(size_t leaf_tier)
{
    sim::ChaosEvent zombie;
    zombie.kind = sim::ChaosEvent::Kind::Zombie;
    zombie.tier = leaf_tier;
    zombie.onlyChild = 0;
    zombie.injectAtNs = 400 * kMs;
    zombie.clearAtNs = 800 * kMs;

    sim::ChaosEvent ramp = zombie;
    ramp.kind = sim::ChaosEvent::Kind::SlowRamp;
    ramp.injectAtNs = 1100 * kMs;
    ramp.clearAtNs = 1500 * kMs;
    ramp.rampPerCallNs = 500'000; // Crosses the 10ms leg deadline fast.
    return {zombie, ramp};
}

/** Everything one campaign repetition produces. */
struct Campaign
{
    double runS = 0;
    double cpuS = 0;
    std::vector<int64_t> latencyNs; //!< OK completions, virtual.
    uint64_t arrivals = 0;
    uint64_t ok = 0;
    uint64_t failed = 0;
    uint64_t onTime = 0;
    uint64_t late = 0;
    uint64_t lost = 0;
    uint64_t duplicated = 0;
    uint64_t leakedTimers = 0;
    uint64_t faultWindowOk[2] = {0, 0};
    uint64_t served = 0;     //!< Calls executed by every node.
    uint64_t leafServed = 0; //!< ...by leaf nodes only.
    CounterSnapshot counters;
    std::vector<double> lateUs; //!< Arrival fired after its instant.
};

/**
 * Mean seconds of one set-up, `buildTopology` plus campaign arm, over
 * kSetupBatch builds back to back (teardown not timed).
 */
double
setupSample(uint64_t seed)
{
    int64_t total_ns = 0;
    for (int b = 0; b < kSetupBatch; ++b) {
        sim::SimClock clock;
        ScopedClock ambient(clock);
        const int64_t start = nowNanos();
        const graph::GraphScenario scenario = graph::grayDag(seed, true);
        sim::Topology topo = sim::buildTopology(clock, scenario);
        sim::ChaosCampaign chaos(clock, topo);
        chaos.arm(campaignEvents(scenario.stages.size() - 1));
        total_ns += nowNanos() - start;
    }
    return double(total_ns) / kSetupBatch / double(kSec);
}

Campaign
runCampaign(uint64_t seed, const std::vector<int64_t> &arrivals,
            std::vector<Span> *spans, std::string *root_reply = nullptr)
{
    Campaign out;
    sim::SimClock clock;
    ScopedClock ambient(clock);
    const graph::GraphScenario scenario = graph::grayDag(seed, true);
    sim::Topology topo = sim::buildTopology(clock, scenario);
    sim::ChaosCampaign chaos(clock, topo);
    const std::vector<sim::ChaosEvent> events =
        campaignEvents(scenario.stages.size() - 1);
    chaos.arm(events);
    const int64_t run_start = nowNanos();

    const CounterSnapshot before = globalCounters().snapshot();
    const double cpu_before = cpuSeconds();
    out.arrivals = arrivals.size();
    std::vector<uint8_t> completions(arrivals.size(), 0);
    std::vector<int64_t> completed_at(arrivals.size(), 0);
    // Each arrival schedules the next, so the timer queue holds the
    // requests in flight rather than the whole schedule.
    std::function<void(size_t)> arrive = [&](size_t i) {
        const int64_t start = arrivals[i];
        if (i + 1 < arrivals.size()) {
            clock.schedule(arrivals[i + 1] - start,
                           [&arrive, i] { arrive(i + 1); });
        }
        out.lateUs.push_back(double(clock.nowNanos() - start) / 1e3);
        graph::GraphRequest request;
        request.workId = i + 1;
        rpc::CallOptions options;
        options.totalDeadlineNs = kRootDeadlineNs;
        options.deadlineNs = kRootDeadlineNs;
        options.maxAttempts = 2;
        options.backoffBaseNs = 2 * kMs;
        options.backoffJitter = 0.2;
        options.backoffJitterSeed = seed * 977 + 11 + uint64_t(i);
        topo.root->call(
            graph::kProcess, encodeMessage(request), options,
            [&, i, start](const Status &status, std::string_view payload) {
                const int64_t elapsed = clock.nowNanos() - start;
                if (completions[i]++ != 0)
                    out.duplicated++;
                completed_at[i] = clock.nowNanos();
                if (elapsed > kRootDeadlineNs)
                    out.late++;
                if (!status.isOk()) {
                    out.failed++;
                    return;
                }
                out.ok++;
                if (root_reply && root_reply->empty())
                    root_reply->assign(payload.data(), payload.size());
                if (elapsed <= kRootDeadlineNs)
                    out.onTime++;
                out.latencyNs.push_back(elapsed);
                for (size_t e = 0; e < events.size(); ++e) {
                    if (start >= events[e].injectAtNs &&
                        start < events[e].clearAtNs)
                        out.faultWindowOk[e]++;
                }
            });
    };
    if (!arrivals.empty())
        clock.schedule(arrivals[0], [&arrive] { arrive(0); });
    clock.runUntilIdle();
    out.cpuS = cpuSeconds() - cpu_before;
    out.runS = double(nowNanos() - run_start) / double(kSec);
    out.counters = CounterSet::diff(before, globalCounters().snapshot());
    out.leakedTimers = clock.pendingTimers();
    for (size_t i = 0; i < completions.size(); ++i) {
        if (completions[i] == 0)
            out.lost++;
    }
    for (size_t tier = 0; tier < topo.tiers.size(); ++tier) {
        for (const auto &host : topo.tiers[tier]) {
            out.served += host->server->requestsServed();
            if (tier + 1 == topo.tiers.size())
                out.leafServed += host->server->requestsServed();
        }
    }
    if (chaos.faultsInjected() != events.size() ||
        chaos.faultsCleared() != events.size())
        out.lost += 1'000'000'000; // Surfaces as a check failure.
    if (spans) {
        for (size_t i = 0; i < arrivals.size(); ++i) {
            spans->push_back({spans->size() + 1, 0, i, "frontend.call",
                              arrivals[i], arrivals[i], completed_at[i]});
        }
    }
    return out;
}

double
exactQuantileUs(std::vector<int64_t> values, double q)
{
    std::vector<double> us(values.begin(), values.end());
    for (double &v : us)
        v /= 1e3;
    return quantile(std::move(us), q);
}

/** The virtual-time outcome that must repeat exactly. */
std::vector<uint64_t>
signature(const Campaign &c)
{
    std::vector<uint64_t> sig = {c.arrivals, c.ok, c.failed, c.late,
                                 c.lost, c.duplicated, c.leakedTimers,
                                 c.faultWindowOk[0], c.faultWindowOk[1],
                                 c.served, c.leafServed};
    for (int64_t v : c.latencyNs)
        sig.push_back(uint64_t(v));
    for (const char *name : {"rpc.retry.scheduled", "rpc.hedge.fired",
                             "graph.node.shed", "overload.queue_rejected",
                             "health.ejected", "health.reinstated"})
        sig.push_back(counterDelta(c.counters, name));
    return sig;
}

void
checkInvariants(const Campaign &c, Report &report)
{
    if (c.lost || c.duplicated)
        report.fail("arrivals not completed exactly once (lost " +
                    std::to_string(c.lost) + ", duplicated " +
                    std::to_string(c.duplicated) + ")");
    if (c.late)
        report.fail(std::to_string(c.late) +
                    " completions after the root deadline");
    if (c.leakedTimers)
        report.fail(std::to_string(c.leakedTimers) + " timers leaked");
    if (c.faultWindowOk[0] == 0 || c.faultWindowOk[1] == 0)
        report.fail("ejection starved the quorum: no OK request during "
                    "a fault window");
    if (counterDelta(c.counters, "health.ejected") == 0)
        report.fail("the campaign's faults were never ejected");
}

} // namespace

void
runSimWorkload(const Args &args, Report &report)
{
    const std::vector<int64_t> arrivals = loadgen::arrivalSchedule(
        loadgen::LoadShape::diurnal(kTroughQps, kCrestQps, kDurationNs),
        kDurationNs, args.seed * 131 + 7);
    std::printf("perfbench sim_gray_dag seed=%llu seconds=%d trace=%d "
                "arrivals=%zu virtual_s=%.1f\n",
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0, arrivals.size(),
                double(kDurationNs) / double(kSec));

    const int64_t budget_end = nowNanos() + int64_t(args.seconds) * kSec;
    std::vector<Campaign> reps;
    std::vector<uint64_t> first_sig;
    auto record = [&](Campaign c) {
        checkInvariants(c, report);
        const std::vector<uint64_t> sig = signature(c);
        if (first_sig.empty())
            first_sig = sig;
        else if (sig != first_sig)
            report.fail("repetition " + std::to_string(reps.size()) +
                        " diverged from the first: the sim is not "
                        "deterministic");
        report.count(c.arrivals, c.failed);
        reps.push_back(std::move(c));
    };

    if (!args.trace) {
        // Warm-up repetition, then repetitions until the budget ends,
        // each after one set-up sample.
        (void)runCampaign(args.seed, arrivals, nullptr);
        std::vector<double> setups;
        while (reps.size() < 3 || nowNanos() < budget_end) {
            const long long steal_before = stealTicks();
            setups.push_back(setupSample(args.seed));
            record(runCampaign(args.seed, arrivals, nullptr));
            const Campaign &c = reps.back();
            std::printf("repetition %zu: %.0f req/s cpu/req=%.1fus "
                        "setup=%.1fus steal=%lld\n",
                        reps.size() - 1, double(c.arrivals) / c.runS,
                        c.cpuS * 1e6 / double(c.arrivals),
                        setups.back() * 1e6, stealTicks() - steal_before);
        }
        const Campaign &c = reps.front();
        std::vector<double> rates, cpus;
        for (const Campaign &rep : reps) {
            rates.push_back(double(rep.arrivals) / rep.runS);
            cpus.push_back(rep.cpuS * 1e6 / double(rep.arrivals));
        }
        report.metric("setup_s", median(setups), "s");
        report.metric("hi.cpu_us_per_req", median(cpus), "us");
        report.metric("hi.calls_per_req",
                      double(c.served) / double(c.arrivals), "count");
        report.metric("rss_mb", peakRssMb(), "MB");
        // Printed and recorded, not gated (README.md).
        report.note("repetitions", double(reps.size()));
        report.note("vt.p50_us", exactQuantileUs(c.latencyNs, 0.5));
        report.note("vt.p99_us", exactQuantileUs(c.latencyNs, 0.99));
        report.note("vt.goodput", double(c.onTime) / double(c.arrivals));
        report.note("hi.scheduled", double(c.arrivals));
        report.note("hi.ok", double(c.ok));
        report.note("hi.failed", double(c.failed));
        report.note("sim_rps", median(rates));
        report.note("health.ejected",
                    double(counterDelta(c.counters, "health.ejected")));
        return;
    }

    // Traced run: one untraced and one traced repetition (virtual
    // times do not depend on tracing), the window-edge counters, a
    // leaf replay, and the layer suite.
    record(runCampaign(args.seed, arrivals, nullptr));
    CounterWindow counters;
    std::string root_reply;
    record(runCampaign(args.seed, arrivals, &report.spans, &root_reply));
    const Campaign &plain = reps[0];
    const Campaign &traced = reps[1];
    counters.finish(report, traced.arrivals, traced.served);
    const double traced_p50 = exactQuantileUs(traced.latencyNs, 0.5);
    report.metric("loadgen.late.p50_us", median(traced.lateUs), "us");
    report.metric("loadgen.late.p99_us", quantile(traced.lateUs, 0.99),
                  "us");

    // Front-end messages: the root's requests and one of its replies.
    graph::GraphReply front_reply;
    if (!decodeMessage(root_reply, front_reply))
        report.fail("sim root reply does not decode");
    double req_ns = 0;
    for (size_t i = 0; i < kReplay; ++i) {
        graph::GraphRequest request;
        request.workId = i + 1;
        req_ns += codecNs(request);
    }
    report.metric("serde.req_ns", req_ns / double(kReplay), "ns");
    report.metric("serde.resp_ns", codecNs(front_reply, int(kReplay)), "ns");

    // Replay: leaf node calls on a fault-free copy of the topology, one
    // group of leaves per request, timing each leg's own messages.
    double self_sum = 0, max_sum = 0, leaf_req_ns = 0, leaf_resp_ns = 0;
    size_t request_bytes = 0;
    {
        sim::SimClock clock;
        ScopedClock ambient(clock);
        const graph::GraphScenario scenario = graph::grayDag(args.seed, true);
        sim::Topology topo = sim::buildTopology(clock, scenario);
        const auto &leaves = topo.tiers.back();
        const uint32_t group = scenario.stages.back().fanout;
        for (size_t i = 0; i < kReplay; ++i) {
            const uint64_t root = report.spans.size() + 1;
            report.spans.push_back(
                {root, 0, i + 1, "replay.request", 0, nowNanos(), 0});
            const size_t first = (i * group) % leaves.size();
            double slowest = 0;
            for (uint32_t leg = 0; leg < group; ++leg) {
                graph::GraphRequest request;
                request.workId = i + 1;
                leaf_req_ns += codecNs(request);
                const std::string body = encodeMessage(request);
                request_bytes = body.size();
                std::string reply_bytes;
                const double us = invokeLeaf(
                    *leaves[first + leg]->server, graph::kProcess, body,
                    reply_bytes, root, report, [&] { clock.runUntilIdle(); });
                graph::GraphReply reply;
                if (!decodeMessage(reply_bytes, reply))
                    report.fail("sim leaf reply does not decode");
                leaf_resp_ns += codecNs(reply);
                self_sum += us;
                slowest = std::max(slowest, us);
            }
            max_sum += slowest;
            report.spans[root - 1].completedNs = nowNanos();
        }
        const double legs = double(kReplay * group);
        self_sum /= legs;
        leaf_req_ns /= legs;
        leaf_resp_ns /= legs;
        max_sum /= double(kReplay);
    }
    report.metric("serde.leaf_req_ns", leaf_req_ns, "ns");
    report.metric("serde.leaf_resp_ns", leaf_resp_ns, "ns");
    report.metric("leaf.self_us", self_sum, "us");
    report.metric("leaf.max_us", max_sum, "us");
    report.metric("fanout.legs_per_req",
                  double(traced.leafServed) / double(traced.arrivals),
                  "count");

    runLayerSuite(args, request_bytes, report);

    // Nominal virtual critical path: every link's base latency both
    // ways plus every tier's compute; the rest is queueing, jitter and
    // the campaign's faults.
    const graph::GraphScenario scenario = graph::grayDag(args.seed, true);
    const sim::SimLink root_link;
    int64_t nominal_ns = root_link.requestLatencyNs +
                         root_link.responseLatencyNs +
                         scenario.rootComputeNs;
    for (const graph::StageSpec &stage : scenario.stages)
        nominal_ns += 2 * stage.link.baseNs + stage.computeNs;
    report.metric("unaccounted_us", traced_p50 - double(nominal_ns) / 1e3,
                  "us");
    report.metric("trace.overhead_us",
                  traced_p50 - exactQuantileUs(plain.latencyNs, 0.5), "us");
    // The untraced repetition's latency, recorded unbounded.
    report.metric("hi.p50_us", exactQuantileUs(plain.latencyNs, 0.5), "us");
    report.note("hi.cpu_us_per_req",
                plain.cpuS * 1e6 / double(plain.arrivals));
    report.note("vt.p50_us", traced_p50);
    report.note("vt.p99_us", exactQuantileUs(traced.latencyNs, 0.99));
    report.note("hi.scheduled", double(traced.arrivals));
    report.note("hi.ok", double(traced.ok));
    report.note("hi.failed", double(traced.failed));
}

} // namespace perfbench
