/**
 * @file
 * Shared helpers for the fig* benchmark binaries: a tiny --key=value
 * flag parser, load lists, and report-printing conventions so every
 * figure's output reads uniformly (and EXPERIMENTS.md can quote it).
 */

#ifndef MUSUITE_BENCH_BENCH_COMMON_H
#define MUSUITE_BENCH_BENCH_COMMON_H

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "harness/deployment.h"
#include "simkernel/sim.h"

namespace musuite {
namespace bench {

/** Minimal --key=value flag bag. */
class Flags
{
  public:
    Flags(int argc, char **argv)
    {
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            if (arg.rfind("--", 0) != 0)
                continue;
            const size_t eq = arg.find('=');
            if (eq == std::string::npos) {
                values[arg.substr(2)] = std::string("1");
            } else {
                values[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
            }
        }
    }

    std::string
    str(const std::string &key, const std::string &fallback) const
    {
        auto it = values.find(key);
        return it == values.end() ? fallback : it->second;
    }

    double
    num(const std::string &key, double fallback) const
    {
        auto it = values.find(key);
        return it == values.end() ? fallback : std::atof(
                                                   it->second.c_str());
    }

    bool
    flag(const std::string &key) const
    {
        return values.count(key) > 0;
    }

    /** Comma-separated list of numbers. */
    std::vector<double>
    numList(const std::string &key,
            const std::vector<double> &fallback) const
    {
        auto it = values.find(key);
        if (it == values.end())
            return fallback;
        std::vector<double> out;
        std::stringstream stream(it->second);
        std::string item;
        while (std::getline(stream, item, ','))
            out.push_back(std::atof(item.c_str()));
        return out.empty() ? fallback : out;
    }

  private:
    std::map<std::string, std::string> values;
};

/**
 * Real-mode deployment options scaled for the current machine; the
 * paper ran 40-core servers, this container typically has one core,
 * so data sets and loads default small. Flags restore larger scales.
 */
inline DeploymentOptions
realModeOptions(const Flags &flags)
{
    DeploymentOptions options;
    options.leafShards = uint32_t(flags.num("leaves", 4));
    options.routerDefaultShards = !flags.flag("no-router-16way");
    options.gmm.numVectors = size_t(flags.num("vectors", 3000));
    options.gmm.dimension = size_t(flags.num("dims", 64));
    options.corpus.numDocuments = size_t(flags.num("docs", 6000));
    options.ratings.users = size_t(flags.num("users", 160));
    options.ratings.items = size_t(flags.num("items", 120));
    options.kv.numKeys = size_t(flags.num("keys", 20000));
    options.prepopulateKeys = size_t(flags.num("prepopulate", 4000));
    options.seed = uint64_t(flags.num("seed", 1));
    return options;
}

/** Real-mode loads: the paper's 100/1K/10K scaled to one core. */
inline std::vector<double>
realLoads(const Flags &flags)
{
    return flags.numList("loads", {100, 500, 2000});
}

/** Paper-scale loads for the simkernel runs. */
inline std::vector<double>
simLoads(const Flags &flags)
{
    return flags.numList("sim-loads", {100, 1000, 10000});
}

inline sim::ServiceParams
simParamsFor(ServiceKind kind)
{
    switch (kind) {
      case ServiceKind::HdSearch:   return sim::hdsearchParams();
      case ServiceKind::Router:     return sim::routerParams();
      case ServiceKind::SetAlgebra: return sim::setAlgebraParams();
      case ServiceKind::Recommend:  return sim::recommendParams();
    }
    return sim::hdsearchParams();
}

/**
 * A figure's claims, computed from its own tables. Each check prints
 * PASS or FAIL; a failed gated claim (sim mode, which is
 * deterministic) makes exitCode() nonzero, while real-mode claims are
 * reported only, since they depend on the host.
 */
class Claims
{
  public:
    void
    check(bool gated, const std::string &claim, bool holds,
          const std::string &detail = "")
    {
        std::cout << (holds ? "PASS" : "FAIL") << " ["
                  << (gated ? "sim, gated" : "real, reported") << "] "
                  << claim << (detail.empty() ? "" : ": " + detail)
                  << "\n";
        failed = failed || (gated && !holds);
    }

    int exitCode() const { return failed ? 1 : 0; }

  private:
    bool failed = false;
};

} // namespace bench
} // namespace musuite

#endif // MUSUITE_BENCH_BENCH_COMMON_H
