/**
 * @file
 * The real-mode workloads: router_kv and hdsearch_knn, every tier in
 * this process over loopback TCP (harness/deployment.h).
 *
 * All load comes from one generator thread (the caller's) through one
 * RpcClient with one connection per online CPU. Closed-loop phases keep
 * a fixed number of requests outstanding; open-loop `hi` windows follow
 * a seeded Poisson schedule at a fixed rate and time each request from
 * its scheduled send.
 */

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <semaphore>
#include <string>
#include <unordered_set>
#include <vector>

#include "base/clock.h"
#include "base/rng.h"
#include "base/time_util.h"
#include "bench.h"
#include "dataset/datasets.h"
#include "harness/deployment.h"
#include "index/vectors.h"
#include "rpc/client.h"
#include "services/hdsearch/midtier.h"
#include "services/hdsearch/proto.h"
#include "services/router/midtier.h"
#include "services/router/proto.h"

namespace perfbench {
namespace {

using namespace musuite;

/** Requests kept outstanding by every closed loop. */
constexpr int kWindow = 16;
/** Windows in a `hi` phase (70% of --seconds) and in a closed-loop
 *  saturation phase (20% of --seconds). */
constexpr int kHiWindows = 28;
constexpr int kSatWindows = 12;
/** Root deadline a request must meet to count as goodput. */
constexpr int64_t kDeadlineNs = 50 * kMs;
/** Requests replayed layer by layer in the traced run. */
constexpr size_t kReplay = 1000;
/** Backlog guard: a `hi` window is reported as not measured when the
 *  generator is still this late (median over the window's last
 *  quarter) at its end, or when this many requests are still
 *  outstanding at its end. A short scheduling hiccup passes; a queue
 *  that grows through the window does not. */
constexpr int64_t kMaxEndLateNs = 1 * kMs;
constexpr int64_t kMaxOutstandingAtEnd = 64;

struct RealWorkload
{
    const char *name;
    ServiceKind kind;
    /** The fixed open-loop `hi` rate, well below the closed-loop
     *  saturation seen on the reference host (router_kv usually ~20K/s,
     *  once 4.1K/s in a spell of steal; hdsearch_knn 8.8K–12K/s). */
    double hiQps;
    size_t streamSize;
};

const RealWorkload kRouterKv{"router_kv", ServiceKind::Router, 3000.0,
                             size_t(1) << 15};
const RealWorkload kHdSearchKnn{"hdsearch_knn", ServiceKind::HdSearch,
                                2000.0, size_t(1) << 12};

/** The seeded request stream plus what each response must satisfy. */
struct Stream
{
    std::vector<std::string> bodies;
    std::vector<uint8_t> isSet; //!< Router only.
    std::vector<std::string> keys; //!< Router only.
    std::vector<std::vector<float>> queries; //!< HDSearch only.
    size_t medianBytes = 0;
};

/**
 * Response checks beyond ServiceDeployment::validateResponse. Router:
 * a set is stored on every replica; a get of a prepopulated key is
 * found, and any value found is the one every writer stores for that
 * key. HDSearch: never a partial merge, and exactly the top k of the
 * query's LSH candidates: as many neighbours as expected (none when
 * the lookup finds no candidate), distinct, nearest first, each a
 * real point of its shard at the distance returned, and rank by rank
 * at the distance a brute-force scan of the candidates gives.
 */
class Checker
{
  public:
    /** `built` is the HDSearch index and data as the deployment builds
     *  them; the expected answers are computed here, once. */
    Checker(const RealWorkload &workload, const DeploymentOptions &options,
            const Stream &stream, const hdsearch::BuiltIndex *built)
        : kind(workload.kind), stream(stream), kv(options.kv),
          shards(built ? &built->leafShards : nullptr)
    {
        if (kind == ServiceKind::Router) {
            for (size_t i = 0; i < options.prepopulateKeys; ++i)
                prepopulated.insert(kv.keyAt(i));
            return;
        }
        for (const std::vector<float> &query : stream.queries) {
            std::vector<float> distances;
            for (const auto &[leaf, ids] : built->midTierIndex->query(query)) {
                for (uint32_t id : ids)
                    distances.push_back(
                        squaredL2(query, (*shards)[leaf].view(id)));
            }
            const size_t keep =
                std::min<size_t>(distances.size(), options.searchK);
            std::partial_sort(distances.begin(),
                              distances.begin() + long(keep),
                              distances.end());
            distances.resize(keep);
            expected.push_back(std::move(distances));
        }
    }

    bool
    operator()(const ServiceDeployment &deployment, size_t index,
               std::string_view payload) const
    {
        if (!deployment.validateResponse(payload))
            return false;
        if (kind == ServiceKind::Router) {
            router::KvReply reply;
            if (!decodeMessage(payload, reply) || reply.degraded)
                return false;
            const std::string &key = stream.keys[index];
            if (stream.isSet[index])
                return reply.found;
            if (!reply.found)
                return prepopulated.count(key) == 0;
            return reply.value == kv.valueFor(key);
        }
        hdsearch::NNResponse response;
        const std::vector<float> &want = expected[index];
        if (!decodeMessage(payload, response) || response.degraded ||
            response.pointIds.size() != want.size() ||
            response.distances.size() != want.size())
            return false;
        auto close = [](float got, float exact) {
            return std::fabs(got - exact) <= 1e-4f * std::max(1.0f, exact);
        };
        std::unordered_set<uint64_t> ids;
        for (size_t i = 0; i < response.pointIds.size(); ++i) {
            const uint64_t leaf = response.pointIds[i] >> 32;
            const uint64_t local = response.pointIds[i] & 0xffffffffu;
            if (leaf >= shards->size() || local >= (*shards)[leaf].size() ||
                !ids.insert(response.pointIds[i]).second ||
                (i > 0 && response.distances[i] < response.distances[i - 1]))
                return false;
            const float actual = squaredL2(stream.queries[index],
                                           (*shards)[leaf].view(local));
            if (!close(response.distances[i], actual) ||
                !close(response.distances[i], want[i]))
                return false;
        }
        return true;
    }

  private:
    ServiceKind kind;
    const Stream &stream;
    KvWorkload kv;
    const std::vector<FeatureStore> *shards;
    std::unordered_set<std::string> prepopulated;
    /** HDSearch: per stream entry, the k smallest candidate distances. */
    std::vector<std::vector<float>> expected;
};

Stream
makeStream(const RealWorkload &workload, const DeploymentOptions &options,
           uint64_t seed, const GmmDataset *gmm)
{
    Stream stream;
    Rng rng(seed);
    if (workload.kind == ServiceKind::Router) {
        KvWorkload kv(options.kv);
        for (size_t i = 0; i < workload.streamSize; ++i) {
            const KvOp op = kv.sampleOp(rng);
            router::KvRequest request;
            request.op = op.isGet ? router::Op::Get : router::Op::Set;
            request.key = op.key;
            request.value = op.value;
            stream.bodies.push_back(encodeMessage(request));
            stream.isSet.push_back(op.isGet ? 0 : 1);
            stream.keys.push_back(op.key);
        }
    } else {
        for (size_t i = 0; i < workload.streamSize; ++i) {
            hdsearch::NNQuery query;
            query.features = gmm->sampleQuery(rng);
            query.k = options.searchK;
            stream.bodies.push_back(encodeMessage(query));
            stream.queries.push_back(std::move(query.features));
        }
    }
    std::vector<double> sizes;
    for (const std::string &body : stream.bodies)
        sizes.push_back(double(body.size()));
    stream.medianBytes = size_t(median(sizes));
    return stream;
}

/** A running deployment and the front-end client that loads it. */
struct Service
{
    std::unique_ptr<ServiceDeployment> deployment;
    std::unique_ptr<rpc::RpcClient> client;

    ~Service()
    {
        client.reset(); // Close the front end before the tiers stop.
        deployment.reset();
    }
};

rpc::ClientOptions
frontEndOptions()
{
    rpc::ClientOptions options;
    options.connections = int(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
    options.completionThreads = 1;
    options.name = "perfbench";
    return options;
}

/** Create the service and serve one request; returns seconds taken. */
double
setUp(const RealWorkload &workload, const DeploymentOptions &options,
      const std::string &probe, Service &service)
{
    const int64_t start = nowNanos();
    service.deployment = ServiceDeployment::create(workload.kind, options);
    service.client = std::make_unique<rpc::RpcClient>(
        service.deployment->midTierPort(), frontEndOptions());
    const auto result = service.client->callSync(
        service.deployment->frontEndMethod(), probe);
    const int64_t end = nowNanos();
    MUSUITE_CHECK(result.isOk()) << "set-up probe failed";
    return double(end - start) / double(kSec);
}

/** Issues requests from a body list in order and counts outcomes. */
class Generator
{
  public:
    using Check = std::function<bool(size_t index, std::string_view payload)>;

    Generator(rpc::Channel &channel, uint32_t method,
              const std::vector<std::string> &bodies,
              const std::vector<uint8_t> &is_set, Check check)
        : channel(channel), method(method), bodies(bodies), isSet(is_set),
          check(std::move(check))
    {}

    /** Send the next request; `done(ok)` runs on a completion thread. */
    template <typename Done>
    size_t
    issue(Done done)
    {
        const size_t index = next++ % bodies.size();
        const Check *checker = &check;
        channel.call(method, bodies[index],
                     [checker, index, done = std::move(done)](
                         const Status &status, std::string_view payload) {
                         done(status.isOk() && (*checker)(index, payload));
                     });
        return index;
    }

    /** Start the stream over, so a phase sends the same requests
     *  whatever ran before it. */
    void
    rewind()
    {
        next = 0;
    }

    bool
    isSetRequest(size_t index) const
    {
        return !isSet.empty() && isSet[index];
    }

    uint64_t attempted = 0;
    uint64_t failed = 0;

  private:
    rpc::Channel &channel;
    uint32_t method;
    const std::vector<std::string> &bodies;
    const std::vector<uint8_t> &isSet;
    Check check;
    size_t next = 0;
};

/** Drain budget for stragglers at the end of any phase. */
constexpr int64_t kDrainNs = 5 * kSec;

/** Per sub-window results of a closed loop. */
struct ClosedLoop
{
    std::vector<double> rates; //!< Completions per wall second.
    std::vector<double> cpuUs; //!< Process CPU µs per completion.
};

/**
 * Closed loop: keep kWindow requests outstanding for `duration_ns`,
 * split into `windows` equal sub-windows.
 */
ClosedLoop
runClosedLoop(Generator &gen, int64_t duration_ns, int windows)
{
    struct State
    {
        std::counting_semaphore<kWindow> slots{kWindow};
        std::atomic<uint64_t> done{0};
        std::atomic<uint64_t> bad{0};
    };
    auto state = std::make_shared<State>();
    std::vector<int64_t> edge_ns;
    std::vector<uint64_t> edge_done;
    std::vector<double> edge_cpu;
    const int64_t start = nowNanos();
    const int64_t step = duration_ns / windows;
    edge_ns.push_back(start);
    edge_done.push_back(0);
    edge_cpu.push_back(cpuSeconds());
    uint64_t issued = 0;
    while (int(edge_ns.size()) <= windows) {
        const int64_t now = nowNanos();
        if (now >= start + step * int64_t(edge_ns.size())) {
            edge_ns.push_back(now);
            edge_done.push_back(state->done.load());
            edge_cpu.push_back(cpuSeconds());
            continue;
        }
        if (!state->slots.try_acquire_for(std::chrono::milliseconds(1)))
            continue;
        issued++;
        gen.issue([state](bool ok) {
            if (!ok)
                state->bad.fetch_add(1);
            state->done.fetch_add(1);
            state->slots.release();
        });
    }
    const int64_t drain_until = nowNanos() + kDrainNs;
    int drained = 0;
    while (drained < kWindow && nowNanos() < drain_until) {
        if (state->slots.try_acquire_for(std::chrono::milliseconds(10)))
            drained++;
    }
    gen.attempted += issued;
    gen.failed += state->bad.load() + (issued - state->done.load());

    ClosedLoop out;
    for (size_t i = 1; i < edge_ns.size(); ++i) {
        const double done = double(edge_done[i] - edge_done[i - 1]);
        out.rates.push_back(done * 1e9 / double(edge_ns[i] - edge_ns[i - 1]));
        out.cpuUs.push_back((edge_cpu[i] - edge_cpu[i - 1]) * 1e6 /
                            std::max(done, 1.0));
    }
    return out;
}

/** One open-loop window's per-request record. */
struct Slot
{
    size_t index = 0;
    int64_t scheduledNs = 0;
    int64_t issuedNs = 0;
    std::atomic<int64_t> completedNs{0};
    std::atomic<uint8_t> outcome{0}; //!< 0 pending, 1 ok, 2 failed.
};

struct OpenWindow
{
    std::vector<double> latencyUs;    //!< OK completions.
    std::vector<double> setLatencyUs; //!< Router sets only.
    std::vector<double> lateUs;       //!< Issue minus schedule.
    std::vector<size_t> indices;      //!< Stream entry of each request.
    std::vector<uint8_t> outcomes;    //!< 1 OK, else failed or lost.
    uint64_t scheduled = 0;
    uint64_t ok = 0;
    uint64_t failed = 0;
    uint64_t onTime = 0; //!< OK within kDeadlineNs.
    int64_t outstandingAtEnd = 0;
    std::string backlog; //!< Non-empty: not measured, and why.
};

/** Poisson arrival offsets (ns from window start) for one window. */
std::vector<int64_t>
poissonOffsets(double qps, int64_t duration_ns, uint64_t seed)
{
    Rng rng(seed);
    std::vector<int64_t> offsets;
    double at = 0.0;
    while (true) {
        at += rng.nextExponential(qps / 1e9);
        if (at >= double(duration_ns))
            break;
        offsets.push_back(int64_t(at));
    }
    return offsets;
}

OpenWindow
runOpenWindow(Generator &gen, double qps, int64_t duration_ns,
              uint64_t seed, std::vector<Span> *spans)
{
    const std::vector<int64_t> offsets =
        poissonOffsets(qps, duration_ns, seed);
    struct State
    {
        explicit State(size_t n) : slots(n) {}
        std::vector<Slot> slots;
        std::atomic<int64_t> outstanding{0};
    };
    auto state = std::make_shared<State>(offsets.size());

    OpenWindow window;
    const int64_t start = nowNanos() + 200 * kUs;
    for (size_t i = 0; i < offsets.size(); ++i) {
        Slot &slot = state->slots[i];
        slot.scheduledNs = start + offsets[i];
        sleepUntilNanos(slot.scheduledNs);
        slot.issuedNs = nowNanos();
        state->outstanding.fetch_add(1);
        slot.index = gen.issue([state, i](bool ok) {
            Slot &mine = state->slots[i];
            mine.completedNs.store(nowNanos());
            mine.outcome.store(ok ? 1 : 2);
            state->outstanding.fetch_sub(1);
        });
    }
    sleepUntilNanos(start + duration_ns);
    window.outstandingAtEnd = state->outstanding.load();
    const int64_t drain_until = nowNanos() + kDrainNs;
    while (state->outstanding.load() > 0 && nowNanos() < drain_until)
        sleepForNanos(100 * kUs);

    window.scheduled = offsets.size();
    for (Slot &slot : state->slots) {
        window.lateUs.push_back(double(slot.issuedNs - slot.scheduledNs) /
                                1e3);
        const uint8_t outcome = slot.outcome.load();
        window.indices.push_back(slot.index);
        window.outcomes.push_back(outcome);
        if (outcome != 1) {
            window.failed++;
            continue;
        }
        const int64_t latency = slot.completedNs.load() - slot.scheduledNs;
        window.ok++;
        if (latency <= kDeadlineNs)
            window.onTime++;
        window.latencyUs.push_back(double(latency) / 1e3);
        if (gen.isSetRequest(slot.index))
            window.setLatencyUs.push_back(double(latency) / 1e3);
        if (spans) {
            Span span;
            span.id = spans->size() + 1;
            span.request = slot.index;
            span.name = "frontend.call";
            span.scheduledNs = slot.scheduledNs;
            span.issuedNs = slot.issuedNs;
            span.completedNs = slot.completedNs.load();
            spans->push_back(span);
        }
    }
    gen.attempted += window.scheduled;
    gen.failed += window.failed;

    const size_t tail = window.lateUs.size() - window.lateUs.size() / 4;
    const double end_late_us = median(std::vector<double>(
        window.lateUs.begin() + long(tail), window.lateUs.end()));
    if (end_late_us * 1e3 > double(kMaxEndLateNs)) {
        window.backlog = "generator still " +
                         std::to_string(int64_t(end_late_us)) +
                         "us late at window end";
    } else if (window.outstandingAtEnd > kMaxOutstandingAtEnd) {
        window.backlog = std::to_string(window.outstandingAtEnd) +
                         " requests outstanding at window end";
    }
    return window;
}

/** The `hi` phase: `windows` open-loop windows, merged. */
struct HiPhase
{
    std::vector<double> latencyUs;
    std::vector<double> lateUs;
    std::vector<size_t> indices;   //!< Every window's, in order.
    std::vector<uint8_t> outcomes; //!< Every window's, in order.
    uint64_t scheduled = 0;
    uint64_t ok = 0;
    uint64_t failed = 0;
    uint64_t onTime = 0;
    int measured = 0;
    int backlogged = 0;
    double cpuUsPerReq = 0.0; //!< Over every window of the phase.
    /** Per measured window: p50, set-only p50, CPU per request. */
    std::vector<double> windowP50Us;
    std::vector<double> windowSetP50Us;
    std::vector<double> windowCpuUs;
};

/** `between`, if set, runs after each window, outside its figures. */
HiPhase
runHiPhase(Generator &gen, double qps, int64_t duration_ns, int windows,
           uint64_t seed, std::vector<Span> *spans,
           const std::function<void()> &between = {})
{
    HiPhase phase;
    double cpu_s = 0;
    for (int w = 0; w < windows; ++w) {
        const long long steal_before = stealTicks();
        const double window_cpu_before = cpuSeconds();
        OpenWindow window =
            runOpenWindow(gen, qps, duration_ns / windows,
                          seed * 1000003 + uint64_t(w), spans);
        const double window_cpu_s = cpuSeconds() - window_cpu_before;
        const double window_cpu_us =
            window_cpu_s * 1e6 / double(std::max<uint64_t>(window.ok, 1));
        cpu_s += window_cpu_s;
        std::printf("hi window %d: p50=%.1fus late.p50=%.1fus "
                    "cpu/req=%.1fus steal=%lld\n",
                    w, median(window.latencyUs), median(window.lateUs),
                    window_cpu_us, stealTicks() - steal_before);
        phase.scheduled += window.scheduled;
        phase.ok += window.ok;
        phase.failed += window.failed;
        phase.onTime += window.onTime;
        phase.lateUs.insert(phase.lateUs.end(), window.lateUs.begin(),
                            window.lateUs.end());
        phase.indices.insert(phase.indices.end(), window.indices.begin(),
                             window.indices.end());
        phase.outcomes.insert(phase.outcomes.end(), window.outcomes.begin(),
                              window.outcomes.end());
        if (!window.backlog.empty()) {
            phase.backlogged++;
            std::printf("hi window %d not measured: %s\n", w,
                        window.backlog.c_str());
            continue;
        }
        phase.measured++;
        phase.windowP50Us.push_back(median(window.latencyUs));
        phase.windowCpuUs.push_back(window_cpu_us);
        if (!window.setLatencyUs.empty())
            phase.windowSetP50Us.push_back(median(window.setLatencyUs));
        phase.latencyUs.insert(phase.latencyUs.end(),
                               window.latencyUs.begin(),
                               window.latencyUs.end());
        if (between)
            between();
    }
    phase.cpuUsPerReq = phase.ok ? cpu_s * 1e6 / double(phase.ok) : 0.0;
    return phase;
}

/** A workload's `hi` phase: the same seeded windows over the same
 *  stream entries in every run, so traced and untraced runs of one
 *  seed send the same requests on the same schedule. */
HiPhase
runHiPhase(Generator &gen, const RealWorkload &workload, const Args &args,
           std::vector<Span> *spans,
           const std::function<void()> &between = {})
{
    gen.rewind();
    return runHiPhase(gen, workload.hiQps,
                      int64_t(args.seconds) * kSec * 7 / 10, kHiWindows,
                      args.seed, spans, between);
}

void
warmUp(Generator &gen)
{
    // The shared timer thread starts on first use; start it now.
    realClock().schedule(0, [] {});
    (void)runClosedLoop(gen, 500 * kMs, 1);
}

uint64_t
servedTotal(ServiceDeployment &deployment)
{
    uint64_t total = deployment.midTierServer().requestsServed();
    for (size_t i = 0; i < deployment.leafCount(); ++i)
        total += deployment.leafServer(i).requestsServed();
    return total;
}

/** Costs of the traced replay: means per request, except the leaf
 *  figures (`serdeLeaf*`, `leafSelfUs`), which are means per leg. */
struct Replay
{
    double serdeReqNs = 0, serdeRespNs = 0;
    double serdeLeafReqNs = 0, serdeLeafRespNs = 0;
    double midComputeUs = 0; //!< Routing hash or LSH lookup.
    double leafSelfUs = 0, leafMaxUs = 0, legsPerReq = 0;
};

Replay
replayRouter(ServiceDeployment &deployment, const Stream &stream,
             Report &report)
{
    // The program's own routing function, on a mid-tier object that
    // never serves (its channels are placeholders).
    router::MidTier routing(std::vector<std::shared_ptr<rpc::Channel>>(
                                deployment.leafCount()),
                            DeploymentOptions{}.routerMidTier);
    Replay out;
    double legs = 0, self_sum = 0;
    double leaf_req_sum = 0, leaf_resp_sum = 0;
    const size_t n = std::min(kReplay, stream.bodies.size());
    for (size_t i = 0; i < n; ++i) {
        const uint64_t root = report.spans.size() + 1;
        report.spans.push_back(
            {root, 0, i, "replay.request", 0, nowNanos(), 0});
        // The mid-tier decodes the request and forwards its bytes; each
        // leg's leaf decodes them again and encodes its own reply.
        router::KvRequest request;
        MUSUITE_CHECK(decodeMessage(stream.bodies[i], request));
        out.serdeReqNs += codecNs(request);

        const int64_t route_start = nowNanos();
        const std::vector<uint32_t> pool = routing.replicaPool(request.key);
        out.midComputeUs += double(nowNanos() - route_start) / 1e3;

        const size_t fan = stream.isSet[i] ? pool.size() : 1;
        double slowest = 0;
        router::KvReply reply;
        for (size_t leg = 0; leg < fan; ++leg) {
            router::KvRequest leaf_request;
            MUSUITE_CHECK(decodeMessage(stream.bodies[i], leaf_request));
            leaf_req_sum += codecNs(leaf_request);
            std::string reply_bytes;
            const double us =
                invokeLeaf(deployment.leafServer(pool[leg]), router::kLeafOp,
                           stream.bodies[i], reply_bytes, root, report,
                           [] {});
            self_sum += us;
            slowest = std::max(slowest, us);
            legs++;
            if (!decodeMessage(reply_bytes, reply))
                report.fail("router leaf reply does not decode");
            leaf_resp_sum += codecNs(reply);
        }
        // The mid-tier's own reply to the front end.
        out.serdeRespNs += codecNs(reply);
        out.leafMaxUs += slowest;
        report.spans[root - 1].completedNs = nowNanos();
    }
    out.serdeReqNs /= double(n);
    out.serdeRespNs /= double(n);
    out.serdeLeafReqNs = leaf_req_sum / legs;
    out.serdeLeafRespNs = leaf_resp_sum / legs;
    out.midComputeUs /= double(n);
    out.leafMaxUs /= double(n);
    out.leafSelfUs = self_sum / legs;
    out.legsPerReq = legs / double(n);
    return out;
}

Replay
replayHdSearch(ServiceDeployment &deployment, const Stream &stream,
               const hdsearch::BuiltIndex &built, Report &report)
{
    Replay out;
    double legs = 0, self_sum = 0;
    double leaf_req_sum = 0, leaf_resp_sum = 0;
    const size_t n = std::min(kReplay, stream.bodies.size());
    for (size_t i = 0; i < n; ++i) {
        const uint64_t root = report.spans.size() + 1;
        report.spans.push_back(
            {root, 0, i, "replay.request", 0, nowNanos(), 0});
        hdsearch::NNQuery query;
        MUSUITE_CHECK(decodeMessage(stream.bodies[i], query));
        out.serdeReqNs += codecNs(query);

        const int64_t lookup_start = nowNanos();
        auto candidates = built.midTierIndex->query(query.features);
        out.midComputeUs += double(nowNanos() - lookup_start) / 1e3;

        hdsearch::NNResponse merged;
        double slowest = 0;
        for (auto &[leaf, ids] : candidates) {
            hdsearch::LeafNNRequest leaf_request;
            leaf_request.features = query.features;
            leaf_request.candidates = ids;
            leaf_request.k = query.k;
            leaf_req_sum += codecNs(leaf_request);
            std::string reply_bytes;
            const double us = invokeLeaf(
                deployment.leafServer(leaf), hdsearch::kLeafDistance,
                encodeMessage(leaf_request), reply_bytes, root, report,
                [] {});
            self_sum += us;
            slowest = std::max(slowest, us);
            legs++;
            hdsearch::LeafNNResponse leaf_reply;
            if (!decodeMessage(reply_bytes, leaf_reply))
                report.fail("hdsearch leaf reply does not decode");
            leaf_resp_sum += codecNs(leaf_reply);
            for (size_t j = 0; j < leaf_reply.pointIds.size(); ++j) {
                merged.pointIds.push_back(
                    hdsearch::globalPointId(leaf, leaf_reply.pointIds[j]));
                merged.distances.push_back(leaf_reply.distances[j]);
            }
        }
        out.serdeRespNs += codecNs(merged);
        out.leafMaxUs += slowest;
        report.spans[root - 1].completedNs = nowNanos();
    }
    out.serdeReqNs /= double(n);
    out.serdeRespNs /= double(n);
    out.serdeLeafReqNs = legs ? leaf_req_sum / legs : 0.0;
    out.serdeLeafRespNs = legs ? leaf_resp_sum / legs : 0.0;
    out.midComputeUs /= double(n);
    out.leafMaxUs /= double(n);
    out.leafSelfUs = legs ? self_sum / legs : 0.0;
    out.legsPerReq = legs / double(n);
    return out;
}

void
checkHiPhase(const HiPhase &phase, Report &report)
{
    if (phase.failed)
        report.fail(std::to_string(phase.failed) +
                    " hi-window requests failed or returned a wrong answer");
    if (phase.measured == 0)
        report.fail("no hi window was measured (backlog every time)");
}

} // namespace

void
runEchoPass(Report &report)
{
    // Transport only: an empty handler behind the same server threading
    // the mid-tier uses, loaded like router_kv's front end.
    rpc::ServerOptions server_options;
    server_options.name = "echo";
    rpc::Server server(server_options);
    constexpr uint32_t kEcho = 1;
    server.registerHandler(kEcho, [](rpc::ServerCallPtr call) {
        call->respondOk("");
    });
    server.start();
    {
        rpc::RpcClient client(server.port(), frontEndOptions());
        const std::vector<std::string> bodies(1, std::string(128, 'e'));
        const std::vector<uint8_t> no_sets;
        Generator gen(client, kEcho, bodies, no_sets,
                      [](size_t, std::string_view payload) {
                          return payload.empty();
                      });
        (void)runClosedLoop(gen, 300 * kMs, 1);
        const std::vector<double> rates = runClosedLoop(gen, kSec, 4).rates;
        const HiPhase hi = runHiPhase(gen, kRouterKv.hiQps, 1500 * kMs, 3,
                                      7, nullptr);
        if (gen.failed)
            report.fail("echo calls failed");
        report.metric("rpc.echo.p50_us", median(hi.latencyUs), "us");
        report.metric("rpc.echo.sat_qps", median(rates), "1/s");
        report.metric("rpc.echo.cpu_us_per_req", hi.cpuUsPerReq, "us");
        report.count(gen.attempted, gen.failed);
    }
    server.stop();
}

void
runRealWorkload(const Args &args, Report &report)
{
    const RealWorkload &workload =
        args.workload == "router_kv" ? kRouterKv : kHdSearchKnn;
    const DeploymentOptions options;
    std::unique_ptr<GmmDataset> gmm;
    std::unique_ptr<hdsearch::BuiltIndex> built;
    if (workload.kind == ServiceKind::HdSearch) {
        // The same data and index the deployment builds.
        gmm = std::make_unique<GmmDataset>(options.gmm);
        built = std::make_unique<hdsearch::BuiltIndex>(
            hdsearch::buildShardedIndex(gmm->vectors(), options.leafShards,
                                        options.lsh));
    }
    const Stream stream = makeStream(workload, options, args.seed, gmm.get());
    const Checker checker(workload, options, stream, built.get());
    const int64_t budget = int64_t(args.seconds) * kSec;
    std::printf("perfbench %s seed=%llu seconds=%d trace=%d hi_qps=%.0f "
                "window=%d median_request_bytes=%zu\n",
                workload.name, static_cast<unsigned long long>(args.seed),
                args.seconds, args.trace ? 1 : 0, workload.hiQps, kWindow,
                stream.medianBytes);

    Service service;
    std::vector<double> setups = {
        setUp(workload, options, stream.bodies[0], service)};
    ServiceDeployment &deployment = *service.deployment;
    Generator gen(*service.client, deployment.frontEndMethod(), stream.bodies,
                  stream.isSet,
                  [&](size_t index, std::string_view payload) {
                      return checker(deployment, index, payload);
                  });
    warmUp(gen);

    if (!args.trace) {
        const ClosedLoop sat = runClosedLoop(gen, budget * 2 / 10, kSatWindows);
        // Read before the hi phase, whose extra set-ups would add a
        // second deployment: rss_mb is one deployment at full load.
        const double rss_mb = peakRssMb();
        // One more set-up after each hi window, so the set-ups sample
        // the whole run rather than one moment of it.
        auto set_up_again = [&] {
            Service again;
            setups.push_back(setUp(workload, options, stream.bodies[0], again));
        };
        const uint64_t served_before = servedTotal(deployment);
        const HiPhase hi = runHiPhase(gen, workload, args, nullptr,
                                      set_up_again);
        const uint64_t served = servedTotal(deployment) - served_before;
        checkHiPhase(hi, report);
        std::printf("set-ups (ms):");
        for (double setup : setups)
            std::printf(" %.1f", setup * 1e3);
        std::printf("\n");
        report.count(setups.size(), 0);
        report.metric("setup_s", median(setups), "s");
        report.metric("hi.cpu_us_per_req", median(hi.windowCpuUs), "us");
        report.metric("hi.calls_per_req",
                      double(served) / double(std::max<uint64_t>(hi.ok, 1)),
                      "count");
        report.metric("rss_mb", rss_mb, "MB");
        // Wall-clock figures: printed and recorded, not gated (README.md).
        report.note("sat_qps", median(sat.rates));
        report.note("sat.cpu_us_per_req", median(sat.cpuUs));
        report.note("hi.p50_us", median(hi.windowP50Us));
        if (!hi.windowSetP50Us.empty())
            report.note("hi.set.p50_us", median(hi.windowSetP50Us));
        report.note("hi.p99_us", quantile(hi.latencyUs, 0.99));
        report.note("hi.n", double(hi.latencyUs.size()));
        report.note("hi.goodput",
                    hi.scheduled ? double(hi.onTime) / double(hi.scheduled)
                                 : 0.0);
        report.note("loadgen.late.p50_us", median(hi.lateUs));
        report.note("loadgen.late.p99_us", quantile(hi.lateUs, 0.99));
        report.note("hi.windows_measured", hi.measured);
        report.note("hi.windows_backlogged", hi.backlogged);
        report.note("hi.scheduled", double(hi.scheduled));
        report.note("hi.ok", double(hi.ok));
        report.note("hi.failed", double(hi.failed));
        report.count(gen.attempted, gen.failed);
        return;
    }

    // Traced run: the same hi phase untraced, then traced with window
    // edge counters, then the layer-by-layer replay and the suite.
    report.count(1, 0);
    const HiPhase plain = runHiPhase(gen, workload, args, nullptr);
    checkHiPhase(plain, report);

    const uint64_t served_before = servedTotal(*service.deployment);
    const CounterWindow counters;
    const HiPhase traced = runHiPhase(gen, workload, args, &report.spans);
    counters.finish(report, traced.ok,
                    servedTotal(*service.deployment) - served_before);
    checkHiPhase(traced, report);
    if (plain.indices != traced.indices || plain.outcomes != traced.outcomes)
        report.fail("traced and untraced hi phases sent different requests "
                    "or saw different per-request outcomes");

    const double traced_p50 = median(traced.windowP50Us);
    const double plain_p50 = median(plain.windowP50Us);
    report.metric("loadgen.late.p50_us", median(traced.lateUs), "us");
    report.metric("loadgen.late.p99_us", quantile(traced.lateUs, 0.99), "us");

    const Replay replay =
        workload.kind == ServiceKind::Router
            ? replayRouter(*service.deployment, stream, report)
            : replayHdSearch(*service.deployment, stream, *built, report);
    report.metric("serde.req_ns", replay.serdeReqNs, "ns");
    report.metric("serde.resp_ns", replay.serdeRespNs, "ns");
    report.metric("serde.leaf_req_ns", replay.serdeLeafReqNs, "ns");
    report.metric("serde.leaf_resp_ns", replay.serdeLeafRespNs, "ns");
    report.metric("leaf.self_us", replay.leafSelfUs, "us");
    report.metric("leaf.max_us", replay.leafMaxUs, "us");
    report.metric("fanout.legs_per_req", replay.legsPerReq, "count");
    report.note("mid.compute_us", replay.midComputeUs);

    runLayerSuite(args, stream.medianBytes, report);

    double frame_ns = 0;
    for (const Report::Entry &m : report.metrics) {
        if (m.name == "net.frame_codec_ns")
            frame_ns = m.value;
    }
    // Critical path of one request: front-end and leaf serde, the
    // mid-tier's own compute, the slowest leg, and four frames (two
    // hops, both directions).
    const double accounted_us =
        (replay.serdeReqNs + replay.serdeLeafReqNs + replay.serdeLeafRespNs +
         replay.serdeRespNs + 4 * frame_ns) /
            1e3 +
        replay.midComputeUs + replay.leafMaxUs;
    report.metric("unaccounted_us", traced_p50 - accounted_us, "us");
    report.metric("trace.overhead_us", traced_p50 - plain_p50, "us");
    // The untraced phase's latency, recorded unbounded.
    report.metric("hi.p50_us", plain_p50, "us");
    report.note("hi.cpu_us_per_req", median(plain.windowCpuUs));
    report.note("traced.hi.p50_us", traced_p50);
    report.note("untraced.hi.p50_us", plain_p50);
    report.note("hi.scheduled", double(traced.scheduled));
    report.note("hi.ok", double(traced.ok));
    report.note("hi.failed", double(traced.failed));
    report.note("hi.windows_backlogged", plain.backlogged + traced.backlogged);
    report.count(gen.attempted, gen.failed);
}

} // namespace perfbench
