/**
 * @file
 * Fig. 10 — end-to-end response latency distributions across loads.
 *
 * Paper results: violin plots per service at 100 / 1K / 10K QPS;
 * (1) tail latency increases with load, (2) the *median* at 100 QPS
 * is up to 1.45x the median at 1K QPS (deeper sleeps at low load),
 * (3) worst-case end-to-end tail never exceeds ~22 ms.
 *
 * Output: one distribution row (min/p25/p50/p75/p90/p99/p99.9/max)
 * per service x load — the numeric form of a violin plot — for both
 * real mode (scaled loads) and paper-scale simkernel mode.
 *
 * It ends by checking the three claims against its sim table (the
 * one --smoke-json writes) and printing PASS or FAIL per claim. The
 * median claim (2) is gated (exit 1 when it fails); the sim model does
 * not reproduce (1) or (3) (EXPERIMENTS.md), so those are reported.
 *
 * Flags: --loads=a,b,c --sim-loads=a,b,c --window-ms=N --skip-real
 *        --skip-sim
 *        --smoke-json=PATH writes the sim-mode table as JSON
 *        (BENCH_fig10.json, which check.sh diffs).
 */

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "base/time_util.h"
#include "bench_common.h"
#include "harness/experiment.h"
#include "stats/table.h"

using namespace musuite;

namespace {

/** One sim table row: a service's latency at one offered load. */
struct Row
{
    ServiceKind kind;
    double qps;
    DistributionSummary latency;
};

DistributionSummary
addDistributionRow(Table &table, ServiceKind kind, double qps,
                   const Histogram &latency)
{
    const DistributionSummary s = latency.summary();
    table.row()
        .cell(serviceName(kind))
        .cell(qps, 0)
        .cell(uint64_t(s.count))
        .nanos(s.min)
        .nanos(s.p25)
        .nanos(s.p50)
        .nanos(s.p75)
        .nanos(s.p90)
        .nanos(s.p99)
        .nanos(s.p999)
        .nanos(s.max);
    return s;
}

std::vector<std::string>
header()
{
    return {"service", "qps", "n",  "min", "p25",  "p50",
            "p75",     "p90", "p99", "p99.9", "max"};
}

std::string
atLoad(int64_t ns, double qps)
{
    return formatNanos(ns) + "@" + std::to_string(int64_t(qps));
}

/**
 * The three claims over the sim table's rows (each service's loads in
 * ascending order). Only (2), median@100 > median@1K, is gated; the
 * sim model misses (1) and (3), so they are reported.
 */
void
checkClaims(bench::Claims &claims, const std::vector<Row> &rows)
{
    std::string falls;
    std::string ratios;
    bool low_load_slower = true;
    const Row *worst = nullptr;
    for (size_t i = 0; i < rows.size(); ++i) {
        const Row &row = rows[i];
        if (worst == nullptr || row.latency.max > worst->latency.max)
            worst = &row;
        if (i == 0 || rows[i - 1].kind != row.kind)
            continue;
        const Row &prev = rows[i - 1];
        if (prev.qps == 100 && row.qps == 1000) {
            const double ratio = double(prev.latency.p50) /
                                 double(std::max<int64_t>(
                                     1, row.latency.p50));
            low_load_slower = low_load_slower && ratio > 1.0;
            char text[32];
            std::snprintf(text, sizeof(text), " %.3f", ratio);
            ratios += std::string(ratios.empty() ? "" : ", ") +
                      serviceName(row.kind) + text;
        }
        if (row.latency.p99 < prev.latency.p99) {
            falls += std::string(falls.empty() ? "" : ", ") +
                     serviceName(row.kind) + " " +
                     atLoad(prev.latency.p99, prev.qps) + " > " +
                     atLoad(row.latency.p99, row.qps);
        }
    }
    if (!ratios.empty()) {
        claims.check(true,
                     "median@100 QPS > median@1K QPS for every service",
                     low_load_slower, "ratios " + ratios);
    }
    claims.check(false, "p99 does not fall as load rises", falls.empty(),
                 falls.empty() ? "" : "falls: " + falls, "sim, reported");
    if (worst != nullptr) {
        claims.check(false, "worst-case tail (max) stays under 22ms",
                     worst->latency.max < 22'000'000,
                     std::string("worst ") + serviceName(worst->kind) +
                         " " + atLoad(worst->latency.max, worst->qps),
                     "sim, reported");
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::Flags flags(argc, argv);
    printEnvironmentBanner(std::cout);
    printBanner(std::cout,
                "Figure 10: end-to-end latency distribution vs load");

    if (!flags.flag("skip-real")) {
        std::cout << "\n[real mode] open-loop Poisson load over "
                     "loopback TCP (loads scaled to this host)\n";
        Table table(header());
        for (ServiceKind kind : allServices()) {
            auto deployment = ServiceDeployment::create(
                kind, bench::realModeOptions(flags));
            for (double qps : bench::realLoads(flags)) {
                WindowOptions window;
                window.qps = qps;
                window.durationNs =
                    int64_t(flags.num("window-ms", 1500)) * 1'000'000;
                window.seed = 31;
                const WindowReport report =
                    runOpenLoopWindow(*deployment, window);
                addDistributionRow(table, kind, qps, report.load.latency);
            }
        }
        table.print(std::cout);
    }

    bench::Claims claims;
    if (!flags.flag("skip-sim")) {
        std::cout << "\n[simkernel, paper scale] 100 / 1K / 10K QPS "
                     "on a 40-core host\n";
        Table table(header());
        std::vector<Row> rows;
        for (ServiceKind kind : allServices()) {
            for (double qps : bench::simLoads(flags)) {
                const sim::SimResult result = sim::simulate(
                    sim::MachineParams{}, bench::simParamsFor(kind),
                    qps, 4'000'000.0, 131);
                rows.push_back({kind, qps,
                                addDistributionRow(table, kind, qps,
                                                   result.latency)});
            }
        }
        table.print(std::cout);
        std::cout << "\n";
        checkClaims(claims, rows);
        const std::string smoke = flags.str("smoke-json", "");
        if (!smoke.empty() &&
            !bench::writeSimTableJson(smoke, "fig10_latency", table)) {
            std::cerr << "fig10_latency: cannot write " << smoke << "\n";
            return 1;
        }
    }
    return claims.exitCode();
}
