/**
 * @file
 * Fig. 9 — saturation throughput (QPS) per µSuite service.
 *
 * Paper result: HDSearch ~11.5K, Router ~12K, Set Algebra ~16.5K,
 * Recommend ~13K QPS on 40-core Skylake servers; all four in the
 * 10-20K band, Set Algebra the highest.
 *
 * This binary reports (a) real mode: closed-loop saturation of the
 * actual services over loopback TCP on this machine (absolute numbers
 * scale with the host; the paper ordering is the claim), and (b)
 * paper-scale simkernel mode: the modelled services on a 40-core
 * host, which should land in the paper's band.
 *
 * It ends by checking the paper's claims against its own tables and
 * printing PASS or FAIL per claim; a failed sim-mode claim exits 1.
 *
 * Flags: --max-workers=N --step-ms=N --skip-real --skip-sim
 *        --loads / data-set scale flags (see bench_common.h).
 */

#include <cmath>
#include <iostream>
#include <map>
#include <string>

#include "bench_common.h"
#include "harness/experiment.h"
#include "stats/table.h"

using namespace musuite;

namespace {

/**
 * The paper's Fig. 9 claims over one mode's table: every service
 * saturates in the 10K-20K band (sim only: real numbers scale with the
 * host), Set Algebra highest, HDSearch lowest.
 */
void
checkClaims(bench::Claims &claims, bool sim,
            const std::map<ServiceKind, double> &qps)
{
    std::string values;
    bool in_band = true;
    for (const auto &[kind, rate] : qps) {
        values += std::string(values.empty() ? "" : ", ") +
                  serviceName(kind) + " " +
                  std::to_string(std::llround(rate));
        in_band = in_band && rate >= 10000 && rate <= 20000;
    }
    const auto order = [&qps](ServiceKind kind, bool highest) {
        for (const auto &[other, rate] : qps) {
            if (other != kind &&
                (highest ? rate >= qps.at(kind) : rate <= qps.at(kind)))
                return false;
        }
        return true;
    };
    if (sim)
        claims.check(true, "every saturation lies in 10K-20K QPS",
                     in_band, values);
    claims.check(sim, "Set Algebra saturates highest",
                 order(ServiceKind::SetAlgebra, true), values);
    claims.check(sim, "HDSearch saturates lowest",
                 order(ServiceKind::HdSearch, false), values);
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::Flags flags(argc, argv);
    printEnvironmentBanner(std::cout);
    printBanner(std::cout, "Figure 9: saturation throughput (QPS)");
    const std::map<ServiceKind, std::string> paper = {
        {ServiceKind::HdSearch, "11500"},
        {ServiceKind::Router, "12000"},
        {ServiceKind::SetAlgebra, "16500"},
        {ServiceKind::Recommend, "13000"},
    };
    bench::Claims claims;

    if (!flags.flag("skip-real")) {
        std::cout << "\n[real mode] closed-loop sweep over this "
                     "machine's services\n";
        Table table({"service", "saturation_qps", "paper_qps"});
        std::map<ServiceKind, double> measured;
        for (ServiceKind kind : allServices()) {
            auto deployment = ServiceDeployment::create(
                kind, bench::realModeOptions(flags));
            const double qps = measureSaturation(
                *deployment, int(flags.num("max-workers", 16)),
                int64_t(flags.num("step-ms", 300)) * 1'000'000);
            measured[kind] = qps;
            table.row()
                .cell(serviceName(kind))
                .cell(qps, 0)
                .cell(paper.at(kind));
        }
        table.print(std::cout);
        checkClaims(claims, false, measured);
    }

    if (!flags.flag("skip-sim")) {
        std::cout << "\n[simkernel, paper scale] 40-core host, "
                     "paper shard counts\n";
        Table table({"service", "saturation_qps", "paper_qps"});
        std::map<ServiceKind, double> measured;
        for (ServiceKind kind : allServices()) {
            // Offer far beyond capacity; sustained completions over
            // the drain span are the saturation throughput.
            const sim::SimResult result = sim::simulate(
                sim::MachineParams{}, bench::simParamsFor(kind),
                60000.0, 1'500'000.0, 97);
            measured[kind] = result.achievedQps;
            table.row()
                .cell(serviceName(kind))
                .cell(result.achievedQps, 0)
                .cell(paper.at(kind));
        }
        table.print(std::cout);
        checkClaims(claims, true, measured);
    }
    return claims.exitCode();
}
