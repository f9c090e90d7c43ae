/**
 * @file
 * Fig. 19 — context switches (CS) and thread contention (HITM)
 * incurred per service across loads.
 *
 * Paper results: both counts (measured over 30 s windows, reported in
 * millions) rise with load for every service, and HITM counts exceed
 * CS counts — when a futex returns, several woken threads contend on
 * the network-socket lock, bouncing its cache line.
 *
 * Real mode: getrusage context switches plus traced-lock contention
 * events over the window. Sim mode: the modelled counters at paper
 * loads, normalized to the paper's 30 s window.
 *
 * It ends by checking the paper's claims against its own tables and
 * printing PASS or FAIL per claim; a failed sim-mode claim exits 1.
 * TCP retransmissions are not reported (the paper did not plot them).
 *
 * Flags: --loads=a,b,c --window-ms=N --skip-real --skip-sim
 */

#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "harness/experiment.h"
#include "stats/table.h"

using namespace musuite;

namespace {

/** One row of a mode's table: counts over a window at one load. */
struct Row
{
    ServiceKind kind;
    double qps;
    double cs;
    double hitm;
};

/**
 * The paper's Fig. 19 claims over one mode's rows (grouped by service,
 * loads ascending): cs and hitm rise strictly with load for every
 * service, and hitm exceeds cs on every row.
 */
void
checkClaims(bench::Claims &claims, bool sim, const std::vector<Row> &rows)
{
    std::string cs_break, hitm_break, order_break;
    const auto where = [](const Row &row) {
        return std::string(serviceName(row.kind)) + " @ " +
               std::to_string(int64_t(row.qps));
    };
    for (size_t i = 0; i < rows.size(); ++i) {
        const Row &row = rows[i];
        if (row.hitm <= row.cs && order_break.empty())
            order_break = where(row);
        if (i == 0 || rows[i - 1].kind != row.kind)
            continue;
        if (row.cs <= rows[i - 1].cs && cs_break.empty())
            cs_break = where(row);
        if (row.hitm <= rows[i - 1].hitm && hitm_break.empty())
            hitm_break = where(row);
    }
    const auto detail = [](const std::string &first) {
        return first.empty() ? std::string() : "first break at " + first;
    };
    claims.check(sim, "cs rises strictly with load for every service",
                 cs_break.empty(), detail(cs_break));
    claims.check(sim, "hitm rises strictly with load for every service",
                 hitm_break.empty(), detail(hitm_break));
    claims.check(sim, "hitm exceeds cs on every row", order_break.empty(),
                 detail(order_break));
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::Flags flags(argc, argv);
    printEnvironmentBanner(std::cout);
    printBanner(std::cout,
                "Figure 19: context switches and HITM vs load");
    bench::Claims claims;

    if (!flags.flag("skip-real")) {
        std::cout << "\n[real mode] counts over the window "
                     "(CS from getrusage; HITM proxy = contended "
                     "traced-lock acquisitions)\n";
        Table table({"service", "qps", "cs", "hitm_proxy",
                     "futex_waits", "futex_wakes"});
        std::vector<Row> rows;
        for (ServiceKind kind : allServices()) {
            auto deployment = ServiceDeployment::create(
                kind, bench::realModeOptions(flags));
            for (double qps : bench::realLoads(flags)) {
                WindowOptions window;
                window.qps = qps;
                window.durationNs =
                    int64_t(flags.num("window-ms", 1200)) * 1'000'000;
                window.seed = 29;
                const WindowReport report =
                    runOpenLoopWindow(*deployment, window);
                rows.push_back({kind, qps,
                                double(report.contextSwitches.total()),
                                double(report.hitmEvents)});
                table.row()
                    .cell(serviceName(kind))
                    .cell(qps, 0)
                    .cell(report.contextSwitches.total())
                    .cell(report.hitmEvents)
                    .cell(report.futexWaits)
                    .cell(report.futexWakes);
            }
        }
        table.print(std::cout);
        checkClaims(claims, false, rows);
    }

    if (!flags.flag("skip-sim")) {
        std::cout << "\n[simkernel, paper scale] counts scaled to the "
                     "paper's 30s windows (millions)\n";
        Table table({"service", "qps", "cs_millions",
                     "hitm_millions"});
        const double window_us = 4'000'000.0;
        const double to_30s = 30e6 / window_us;
        std::vector<Row> rows;
        for (ServiceKind kind : allServices()) {
            for (double qps : bench::simLoads(flags)) {
                const sim::SimResult result = sim::simulate(
                    sim::MachineParams{}, bench::simParamsFor(kind),
                    qps, window_us, 71);
                const double cs =
                    double(result.contextSwitches) * to_30s / 1e6;
                const double hitm =
                    double(result.hitmEvents) * to_30s / 1e6;
                rows.push_back({kind, qps, cs, hitm});
                table.row()
                    .cell(serviceName(kind))
                    .cell(qps, 0)
                    .cell(cs, 2)
                    .cell(hitm, 2);
            }
        }
        table.print(std::cout);
        checkClaims(claims, true, rows);
    }
    return claims.exitCode();
}
