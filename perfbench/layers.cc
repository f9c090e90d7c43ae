/**
 * @file
 * The layer microcost suite of the traced run. Each metric times the
 * benchmark's own calls into one module's public functions, on fixed
 * inputs drawn from the run's seed, so the numbers mean the same thing
 * in every workload's traced run.
 */

#include <unistd.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "base/clock.h"
#include "base/rng.h"
#include "base/time_util.h"
#include "bench.h"
#include "dataset/datasets.h"
#include "harness/deployment.h"
#include "hash/spooky.h"
#include "kv/mucache.h"
#include "ostrace/sync.h"
#include "rpc/local_channel.h"
#include "rpc/message.h"
#include "rpc/server.h"
#include "services/hdsearch/midtier.h"
#include "services/router/leaf.h"
#include "services/router/proto.h"
#include "simkernel/sim_transport.h"
#include "simkernel/simclock.h"
#include "stats/counters.h"
#include "stats/histogram.h"

namespace perfbench {
namespace {

using namespace musuite;

constexpr int kReps = 20'000;

/** Mean ns per call of `body` over `reps` calls. */
template <typename Body>
double
meanNs(int reps, Body body)
{
    const int64_t start = nowNanos();
    for (int i = 0; i < reps; ++i)
        body(i);
    return double(nowNanos() - start) / double(reps);
}

void
localDispatch(Report &report)
{
    rpc::Server server;
    server.registerHandler(1, [](rpc::ServerCallPtr call) {
        call->respondOk("");
    });
    rpc::LocalChannel channel(server);
    bool ok = true;
    const double ns = meanNs(kReps, [&](int) {
        ok = channel.callSync(1, std::string()).isOk() && ok;
    });
    if (!ok)
        report.fail("LocalChannel call failed");
    report.metric("rpc.local_call_ns", ns, "ns");
}

void
frameCodec(size_t frame_bytes, Report &report)
{
    rpc::MessageHeader header;
    header.method = 1;
    const std::string payload(frame_bytes, 'p');
    bool ok = true;
    const double ns = meanNs(kReps, [&](int i) {
        header.requestId = uint64_t(i) + 1;
        const std::string frame = rpc::encodeFrame(header, payload);
        rpc::MessageHeader decoded;
        std::string_view body;
        ok = rpc::decodeFrame(frame, decoded, body) &&
             body.size() == frame_bytes && ok;
    });
    if (!ok)
        report.fail("frame codec round trip failed");
    report.metric("net.frame_codec_ns", ns, "ns");
}

void
counters(Report &report)
{
    // The program bumps counters by name through the global table.
    report.metric("stats.counter_ns.1t", meanNs(kReps * 5, [](int) {
                      globalCounters().counter("perfbench.bump").add();
                  }),
                  "ns");
    const int threads = int(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
    std::atomic<int> ready{0};
    std::vector<std::thread> pool;
    const int64_t start = nowNanos();
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&] {
            ready.fetch_add(1);
            while (ready.load() < threads) {
            }
            for (int i = 0; i < kReps * 5; ++i)
                globalCounters().counter("perfbench.bump").add();
        });
    }
    for (std::thread &thread : pool)
        thread.join();
    report.metric("stats.counter_ns.nt",
                  double(nowNanos() - start) / double(kReps * 5), "ns");

    Histogram histogram;
    Rng rng(3);
    std::vector<int64_t> values(static_cast<size_t>(kReps));
    for (int64_t &v : values)
        v = int64_t(rng.nextExponential(1.0 / 200'000.0));
    report.metric("stats.hist_record_ns", meanNs(kReps * 5, [&](int i) {
                      histogram.record(values[size_t(i % kReps)]);
                  }),
                  "ns");
}

void
simCosts(Report &report)
{
    sim::SimClock clock;
    ScopedClock ambient(clock);
    rpc::Server server;
    server.registerHandler(1, [](rpc::ServerCallPtr call) {
        call->respondOk("");
    });
    sim::SimChannel channel(clock, server);
    // The sim_gray_dag root call's options.
    rpc::CallOptions options;
    options.deadlineNs = 50 * kMs;
    options.totalDeadlineNs = 50 * kMs;
    options.maxAttempts = 2;
    options.backoffBaseNs = 2 * kMs;
    options.backoffJitter = 0.2;
    uint64_t ok = 0;
    const double call_ns = meanNs(kReps, [&](int i) {
        options.backoffJitterSeed = uint64_t(i);
        channel.call(1, std::string(), options,
                     [&](const Status &status, std::string_view) {
                         ok += status.isOk() ? 1 : 0;
                     });
        clock.runUntilIdle();
    });
    if (ok != uint64_t(kReps))
        report.fail("sim channel calls failed");
    report.metric("sim.call_ns", call_ns, "ns");
    report.metric("simkernel.timer_ns", meanNs(kReps * 5, [&](int i) {
                      clock.schedule(int64_t(i % 97) * kUs, [] {});
                      clock.runOne();
                  }),
                  "ns");
}

void
kvHashLeaf(uint64_t seed, Report &report)
{
    const DeploymentOptions options;
    KvWorkload workload(options.kv);
    Rng rng(seed);
    std::vector<KvOp> ops;
    for (int i = 0; i < kReps; ++i)
        ops.push_back(workload.sampleOp(rng));

    MuCache cache;
    for (size_t i = 0; i < options.prepopulateKeys; ++i) {
        const std::string key = workload.keyAt(i);
        cache.set(key, workload.valueFor(key));
    }
    double get_ns = 0, set_ns = 0;
    int gets = 0, sets = 0;
    for (const KvOp &op : ops) {
        const int64_t start = nowNanos();
        if (op.isGet) {
            (void)cache.get(op.key);
            get_ns += double(nowNanos() - start);
            gets++;
        } else {
            cache.set(op.key, op.value);
            set_ns += double(nowNanos() - start);
            sets++;
        }
    }
    report.metric("kv.get_ns", get_ns / std::max(gets, 1), "ns");
    report.metric("kv.set_ns", set_ns / std::max(sets, 1), "ns");

    uint64_t sink = 0;
    report.metric("hash.shard_ns", meanNs(kReps, [&](int i) {
                      sink += shardForKey(ops[size_t(i)].key, 16);
                  }),
                  "ns");
    if (sink == UINT64_MAX)
        report.fail("hash sink overflow");

    // The Router leaf handler, in place, on a prepopulated store.
    router::Leaf leaf;
    rpc::Server server;
    leaf.registerWith(server);
    for (size_t i = 0; i < options.prepopulateKeys; ++i) {
        const std::string key = workload.keyAt(i);
        leaf.cache().set(key, workload.valueFor(key));
    }
    double leaf_get_us = 0, leaf_set_us = 0;
    bool ok = true;
    for (const KvOp &op : ops) {
        router::KvRequest request;
        request.op = op.isGet ? router::Op::Get : router::Op::Set;
        request.key = op.key;
        request.value = op.value;
        std::string body = encodeMessage(request);
        bool answered = false;
        const int64_t start = nowNanos();
        server.invokeLocal(router::kLeafOp, std::move(body),
                           [&](StatusCode code, std::string_view, int64_t) {
                               answered = code == StatusCode::Ok;
                           });
        const double us = double(nowNanos() - start) / 1e3;
        ok = ok && answered;
        (op.isGet ? leaf_get_us : leaf_set_us) += us;
    }
    if (!ok)
        report.fail("router leaf did not answer OK in place");
    report.metric("leaf.get_us", leaf_get_us / std::max(gets, 1), "us");
    report.metric("leaf.set_us", leaf_set_us / std::max(sets, 1), "us");
}

void
lshQuery(uint64_t seed, Report &report)
{
    const DeploymentOptions options;
    const GmmDataset gmm(options.gmm);
    const hdsearch::BuiltIndex built = hdsearch::buildShardedIndex(
        gmm.vectors(), options.leafShards, options.lsh);
    Rng rng(seed);
    std::vector<std::vector<float>> queries;
    for (int i = 0; i < 500; ++i)
        queries.push_back(gmm.sampleQuery(rng));
    size_t hits = 0;
    const double ns = meanNs(int(queries.size()), [&](int i) {
        hits += built.midTierIndex->query(queries[size_t(i)]).size();
    });
    if (hits == 0)
        report.fail("LSH queries found no candidates at all");
    report.metric("index.lsh_query_us", ns / 1e3, "us");
}

} // namespace

CounterWindow::CounterWindow()
{
    resetSyscalls();
    resetContentionStats();
    csBefore = sampleContextSwitches();
    sysBefore = snapshotSyscalls();
    countersBefore = globalCounters().snapshot();
}

void
CounterWindow::finish(Report &report, uint64_t requests,
                      uint64_t handler_calls) const
{
    const SyscallSnapshot sys = diffSyscalls(sysBefore, snapshotSyscalls());
    const ContextSwitches cs =
        diffContextSwitches(csBefore, sampleContextSwitches());
    const CounterSnapshot delta =
        CounterSet::diff(countersBefore, globalCounters().snapshot());
    const uint64_t contended =
        contentionStats().lockContended.load(std::memory_order_relaxed);
    const double n = double(std::max<uint64_t>(requests, 1));
    auto per_req = [&](uint64_t count) { return double(count) / n; };

    report.metric("os.sendmsg_per_req", per_req(sys[size_t(Sys::Sendmsg)]),
                  "count");
    report.metric("os.recvmsg_per_req", per_req(sys[size_t(Sys::Recvmsg)]),
                  "count");
    report.metric("os.epoll_per_req", per_req(sys[size_t(Sys::EpollPwait)]),
                  "count");
    report.metric("os.futex_per_req", per_req(sys[size_t(Sys::Futex)]),
                  "count");
    report.metric("os.cs_vol_per_req", per_req(cs.voluntary), "count");
    report.metric("os.cs_invol_per_req", per_req(cs.involuntary), "count");
    report.metric("os.hitm_per_req", per_req(contended), "count");
    report.metric("sim.attempts_per_req", per_req(handler_calls), "count");
    report.metric("sim.retries_per_req",
                  per_req(counterDelta(delta, "rpc.retry.scheduled")),
                  "count");
    report.metric("sim.hedges_per_req",
                  per_req(counterDelta(delta, "rpc.hedge.fired")), "count");
    report.metric("sim.sheds_per_req",
                  per_req(counterDelta(delta, "graph.node.shed") +
                          counterDelta(delta, "overload.queue_rejected") +
                          counterDelta(delta, "overload.admission_rejected")),
                  "count");
    report.metric("sim.ejections",
                  double(counterDelta(delta, "health.ejected")), "count");
}

void
runLayerSuite(const Args &args, size_t frame_bytes, Report &report)
{
    runEchoPass(report);
    localDispatch(report);
    frameCodec(frame_bytes, report);
    counters(report);
    simCosts(report);
    kvHashLeaf(args.seed, report);
    lshQuery(args.seed, report);
}

} // namespace perfbench
