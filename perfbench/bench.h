/**
 * @file
 * Shared pieces of the perfbench binary: the run arguments, the report
 * a workload fills, spans, and small statistics and resource helpers.
 *
 * Every workload reports the same metric names (BENCHMARK.json lists
 * them); README.md in this directory defines each one per workload.
 */

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "base/logging.h"
#include "base/time_util.h"
#include "ostrace/rusage.h"
#include "ostrace/syscalls.h"
#include "rpc/server.h"
#include "serde/wire.h"
#include "stats/counters.h"

namespace perfbench {

constexpr int64_t kUs = 1'000;
constexpr int64_t kMs = 1'000'000;
constexpr int64_t kSec = 1'000'000'000;

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    int seconds = 10;
    bool trace = false;
    std::string outDir = ".bench_out";
};

/** One timed call, recorded in memory and written out at run end.
 *  Times are ns on the monotonic clock, except sim_gray_dag's front-end
 *  calls, which are in virtual ns. */
struct Span
{
    uint64_t id = 0;
    uint64_t parent = 0; //!< 0 = a root (front-end request) span.
    uint64_t request = 0; //!< Index of the request in the run's stream.
    std::string name;
    int64_t scheduledNs = 0;
    int64_t issuedNs = 0;
    int64_t completedNs = 0;
};

/** Everything one run prints and records. */
class Report
{
  public:
    void
    metric(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }

    /** Printed and recorded, never gated. */
    void
    note(const std::string &name, double value)
    {
        notes.push_back({name, value, ""});
    }

    /** A violated correctness check: the run reports correct=false. */
    void
    fail(const std::string &why)
    {
        problems.push_back(why);
    }

    void
    count(uint64_t attempted_in, uint64_t failed_in)
    {
        attempted += attempted_in;
        failed += failed_in;
    }

    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };

    std::vector<Entry> metrics;
    std::vector<Entry> notes;
    std::vector<std::string> problems;
    std::vector<Span> spans;
    uint64_t attempted = 0;
    uint64_t failed = 0;
};

inline double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * double(values.size() - 1);
    const size_t lo = size_t(pos);
    const size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - double(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/** One counter of a CounterSet::diff, 0 when it never moved. */
inline uint64_t
counterDelta(const musuite::CounterSnapshot &delta, const char *name)
{
    auto it = delta.find(name);
    return it == delta.end() ? 0 : it->second;
}

/** Mean ns of one encode+decode round trip of `message`, over `reps`. */
template <typename Message>
double
codecNs(const Message &message, int reps = 1)
{
    bool ok = true;
    const int64_t start = musuite::nowNanos();
    for (int i = 0; i < reps; ++i) {
        const std::string bytes = musuite::encodeMessage(message);
        Message decoded;
        ok = musuite::decodeMessage(bytes, decoded) && ok;
    }
    const int64_t end = musuite::nowNanos();
    MUSUITE_CHECK(ok) << "serde round trip failed";
    return double(end - start) / double(reps);
}

/**
 * Run one leaf handler in place through `leaf.invokeLocal`, then
 * `pump()` until it has answered (the sim's leaves compute on the
 * SimClock). Stores the reply payload, records a span under `parent`
 * and returns the call's wall µs. A reply other than OK fails the run.
 */
template <typename Pump>
double
invokeLeaf(musuite::rpc::Server &leaf, uint32_t method, std::string body,
           std::string &reply, uint64_t parent, Report &report, Pump pump)
{
    bool responded = false;
    musuite::StatusCode code = musuite::StatusCode::Ok;
    const int64_t start = musuite::nowNanos();
    leaf.invokeLocal(method, std::move(body),
                     [&](musuite::StatusCode status,
                         std::string_view payload, int64_t) {
                         responded = true;
                         code = status;
                         reply.assign(payload.data(), payload.size());
                     });
    pump();
    const int64_t end = musuite::nowNanos();
    if (!responded || code != musuite::StatusCode::Ok)
        report.fail("leaf invokeLocal did not answer OK in place");
    std::vector<Span> &spans = report.spans;
    spans.push_back({spans.size() + 1, parent, spans[parent - 1].request,
                     "leaf.invokeLocal", start, start, end});
    return double(end - start) / 1e3;
}

/** Process user+sys CPU seconds. */
double cpuSeconds();

/** Steal ticks summed over all CPUs (/proc/stat), -1 if unreadable.
 *  Recorded beside metrics, never used to rescale one. */
long long stealTicks();

/** Peak resident set of the process, in MiB. */
double peakRssMb();

/** Run router_kv or hdsearch_knn (real.cc) or sim_gray_dag (sim.cc)
 *  and fill the report. */
void runRealWorkload(const Args &args, Report &report);
void runSimWorkload(const Args &args, Report &report);

/**
 * The layer microcost suite shared by every traced run: transport echo,
 * local dispatch, frame codec, counters, histogram, sim call and
 * timer, kv, hash, LSH and the Router leaf handler. `frame_bytes` is
 * the workload's median request size.
 */
void runLayerSuite(const Args &args, size_t frame_bytes, Report &report);

/**
 * The program's own counters over one traced window: syscalls, context
 * switches and contended locks (ostrace), and the resilience counters.
 * Construction resets and snapshots them; finish() reports the os.* and
 * sim.* per-layer metrics per request and must run as the window ends.
 * harness::runOpenLoopWindow takes the same ostrace snapshot, but inline
 * around its own load generator, so it cannot wrap this one's windows.
 */
class CounterWindow
{
  public:
    CounterWindow();

    /** `handler_calls`: handler executions on every server or node. */
    void finish(Report &report, uint64_t requests,
                uint64_t handler_calls) const;

  private:
    musuite::ContextSwitches csBefore;
    musuite::SyscallSnapshot sysBefore{};
    musuite::CounterSnapshot countersBefore;
};

/** Transport-only echo pass (real.cc): rpc.echo.* metrics. */
void runEchoPass(Report &report);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
