/**
 * @file
 * Implementation of the characterization windows.
 */

#include "harness/experiment.h"

#include "ostrace/sync.h"

namespace musuite {

OpenLoopLoadGen::AsyncIssue
frontEndIssue(ServiceDeployment &deployment, rpc::RpcClient &client,
              Rng &rng)
{
    const uint32_t method = deployment.frontEndMethod();
    return [&deployment, &client, &rng, method](
               uint64_t, std::function<void(RequestOutcome)> done) {
        client.call(method, deployment.sampleRequestBody(rng),
                    [&deployment, done = std::move(done)](
                        const Status &status, std::string_view payload) {
                        if (status.code() ==
                            StatusCode::ResourceExhausted) {
                            done(RequestOutcome::shedRequest());
                            return;
                        }
                        const bool ok =
                            status.isOk() &&
                            deployment.validateResponse(payload);
                        done(RequestOutcome(
                            ok, ok && deployment.responseDegraded(
                                          payload)));
                    });
    };
}

WindowReport
runOpenLoopWindow(ServiceDeployment &deployment,
                  const WindowOptions &options)
{
    rpc::RpcClient client(deployment.midTierPort(),
                          options.frontEndClient);
    Rng request_rng(options.seed ^ 0xF00DF00Dull);

    // Window-edge snapshots: reset what is resettable, snapshot the
    // rest.
    resetSyscalls();
    resetContentionStats();
    (void)osTrace().collect(); // Drop pre-window samples.
    const ContextSwitches cs_before = sampleContextSwitches();
    const SyscallSnapshot sys_before = snapshotSyscalls();

    OpenLoopLoadGen::Options load_options;
    load_options.shape = loadgen::LoadShape::constant(options.qps);
    load_options.durationNs = options.durationNs;
    load_options.seed = options.seed;
    OpenLoopLoadGen generator(load_options);
    LoadResult load =
        generator.run(frontEndIssue(deployment, client, request_rng))
            .front();

    WindowReport report;
    report.load = std::move(load);
    report.syscalls =
        diffSyscalls(sys_before, snapshotSyscalls());
    report.contextSwitches =
        diffContextSwitches(cs_before, sampleContextSwitches());
    const auto &contention = contentionStats();
    report.hitmEvents =
        contention.lockContended.load(std::memory_order_relaxed);
    report.futexWaits =
        contention.futexWaits.load(std::memory_order_relaxed);
    report.futexWakes =
        contention.futexWakes.load(std::memory_order_relaxed);
    report.osBreakdown = osTrace().collect();
    return report;
}

double
measureSaturation(ServiceDeployment &deployment, int max_workers,
                  int64_t per_step_ns)
{
    rpc::ClientOptions client_options;
    client_options.connections = 4;
    client_options.completionThreads = 1;
    client_options.name = "satgen";
    rpc::RpcClient client(deployment.midTierPort(), client_options);

    const uint32_t method = deployment.frontEndMethod();
    Mutex rng_mutex{LockRank::harness, "harness.rng"};
    Rng rng(deployment.kind() == ServiceKind::Router ? 77 : 78);

    return findSaturationThroughput(
        [&](uint64_t) {
            std::string body;
            {
                MutexLock guard(rng_mutex);
                body = deployment.sampleRequestBody(rng);
            }
            auto result = client.callSync(method, std::move(body));
            return result.isOk();
        },
        max_workers, per_step_ns);
}

} // namespace musuite
