/**
 * @file
 * Characterization windows: run a load against a deployed service and
 * collect every signal the paper's figures need — latency
 * distributions, syscall counts, OS-overhead breakdowns, context
 * switches, and lock-contention (HITM-proxy) events.
 */

#ifndef MUSUITE_HARNESS_EXPERIMENT_H
#define MUSUITE_HARNESS_EXPERIMENT_H

#include <array>

#include "harness/deployment.h"
#include "loadgen/loadgen.h"
#include "ostrace/ostrace.h"
#include "ostrace/rusage.h"
#include "ostrace/syscalls.h"

namespace musuite {

struct WindowOptions
{
    double qps = 1000.0;
    int64_t durationNs = 1'000'000'000;
    uint64_t seed = 1;
    rpc::ClientOptions frontEndClient{
        /*connections=*/2, /*completionThreads=*/1,
        /*blockingPoll=*/true, /*name=*/"frontend"};
};

/** Everything measured over one open-loop window. */
struct WindowReport
{
    LoadResult load;
    SyscallSnapshot syscalls{};           //!< Deltas over the window.
    ContextSwitches contextSwitches;      //!< Deltas over the window.
    uint64_t hitmEvents = 0;              //!< Contended acquisitions.
    uint64_t futexWaits = 0;
    uint64_t futexWakes = 0;
    std::array<Histogram, numOsCategories> osBreakdown{
        Histogram(4), Histogram(4), Histogram(4), Histogram(4),
        Histogram(4), Histogram(4), Histogram(4), Histogram(4)};

    /** Syscall invocations per completed query (Figs. 11-14 y-axis). */
    double
    syscallsPerQuery(Sys sys) const
    {
        if (load.completed == 0)
            return 0.0;
        return double(syscalls[size_t(sys)]) / double(load.completed);
    }
};

/**
 * Open-loop issuer for the deployment's front end: each call sends a
 * body drawn from `rng` and reports the reply validated, degraded when
 * it carries partial results, or shed on RESOURCE_EXHAUSTED (a shed
 * still counts as an error). All three references must outlive the
 * load generator's run.
 */
OpenLoopLoadGen::AsyncIssue frontEndIssue(ServiceDeployment &deployment,
                                          rpc::RpcClient &client,
                                          Rng &rng);

/**
 * Drive the deployment open loop at the given offered load and return
 * the full report. Counters are reset at window start, snapshotted at
 * window end.
 */
WindowReport runOpenLoopWindow(ServiceDeployment &deployment,
                               const WindowOptions &options);

/**
 * Closed-loop saturation throughput for a deployment (Fig. 9),
 * sweeping synchronous front-end workers until QPS plateaus.
 */
double measureSaturation(ServiceDeployment &deployment,
                         int max_workers = 32,
                         int64_t per_step_ns = 400'000'000);

} // namespace musuite

#endif // MUSUITE_HARNESS_EXPERIMENT_H
