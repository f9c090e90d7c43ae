/**
 * @file
 * Flash-crowd / diurnal-load experiment (motivated by paper §VI-B:
 * OLDI services face drastic diurnal load changes, flash crowds after
 * news events, and launch surges; "supporting wide-ranging loads aids
 * rapid OLDI service scale-up").
 *
 * Drives a real deployment through a time-varying load profile —
 * baseline → Nx surge → recovery — and reports the per-phase latency
 * distributions, showing how the blocking/dispatch mid-tier absorbs
 * (or queues under) a surge and how quickly tails recover.
 *
 * Flags: --service=router|hdsearch|setalgebra|recommend
 *        --baseline=QPS --spike-factor=N --phase-ms=N
 *
 * Exits nonzero if any phase lost a request (issued != completed +
 * errors). The gate is weak on purpose: it never looks at latency, so
 * a loaded box cannot fail it.
 */

#include <iostream>

#include "bench_common.h"
#include "harness/experiment.h"
#include "rpc/client.h"
#include "stats/table.h"

using namespace musuite;

int
main(int argc, char **argv)
{
    const bench::Flags flags(argc, argv);
    printEnvironmentBanner(std::cout);
    printBanner(std::cout,
                "Flash crowd: latency through a load surge (§VI-B "
                "motivation)");

    ServiceKind kind = ServiceKind::Router;
    const std::string service = flags.str("service", "router");
    if (service == "hdsearch")
        kind = ServiceKind::HdSearch;
    else if (service == "setalgebra")
        kind = ServiceKind::SetAlgebra;
    else if (service == "recommend")
        kind = ServiceKind::Recommend;

    auto deployment =
        ServiceDeployment::create(kind, bench::realModeOptions(flags));
    rpc::RpcClient client(deployment->midTierPort());
    Rng request_rng(404);

    const double baseline = flags.num("baseline", 300);
    const double factor = flags.num("spike-factor", 6);
    const int64_t phase_ns =
        int64_t(flags.num("phase-ms", 800)) * 1'000'000;

    OpenLoopLoadGen::Options options;
    options.shape = loadgen::LoadShape::flashCrowd(
        baseline, baseline * factor, phase_ns, phase_ns);
    options.durationNs = 3 * phase_ns;
    options.seed = 7;
    options.phaseBounds = {0, phase_ns, 2 * phase_ns};
    OpenLoopLoadGen generator(options);
    const std::vector<LoadResult> phases = generator.run(
        frontEndIssue(*deployment, client, request_rng));
    const char *const phase_names[] = {"baseline", "flash-crowd",
                                       "recovery"};

    std::cout << "\n" << serviceName(kind) << ": " << baseline
              << " QPS baseline, " << factor << "x surge\n";
    Table table({"phase", "offered_qps", "completed", "errors", "p50",
                 "p99", "max"});
    bool lost = false;
    for (size_t i = 0; i < phases.size(); ++i) {
        const LoadResult &phase = phases[i];
        lost |= phase.issued != phase.completed + phase.errors;
        table.row()
            .cell(phase_names[i])
            .cell(phase.offeredQps, 0)
            .cell(phase.completed)
            .cell(phase.errors)
            .nanos(phase.latency.valueAtQuantile(0.5))
            .nanos(phase.latency.valueAtQuantile(0.99))
            .nanos(phase.latency.maxValue());
    }
    table.print(std::cout);

    std::cout << "\nReading: the surge phase inflates tails (queueing "
                 "behind the dispatch queue and leaf CPUs); recovery "
                 "tails fall back toward baseline once the backlog "
                 "drains — the wide-ranging-load behaviour µSuite is "
                 "built to study.\n";
    if (lost) {
        std::cerr << "FAIL: a phase lost requests (issued != completed "
                     "+ errors)\n";
        return 1;
    }
    return 0;
}
