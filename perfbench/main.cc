/**
 * @file
 * perfbench entry point.
 *
 *   perfbench --workload <router_kv|hdsearch_knn|sim_gray_dag>
 *             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
 *
 * Prints a human-readable block, a host/contention stamp line, and as
 * its last line one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * With --trace 0 the metrics are the end-to-end ones, with --trace 1
 * the per-layer ones. The same object plus the stamp and the
 * not-gated notes is written to <out-dir>/<workload>-s<seed>-t<0|1>.json,
 * and a traced run writes its spans to
 * <out-dir>/spans-<workload>-s<seed>.jsonl.
 */

#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "bench.h"

namespace perfbench {

double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
           double(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

long long
stealTicks()
{
    std::ifstream stat("/proc/stat");
    std::string label;
    long long fields[8] = {};
    if (!(stat >> label) || label != "cpu")
        return -1;
    for (long long &field : fields) {
        if (!(stat >> field))
            return -1;
    }
    return fields[7];
}

namespace {

/** CPUs this process may run on. */
int
allowedCpuCount()
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0)
        return -1;
    return CPU_COUNT(&allowed);
}

std::vector<std::string>
workloadNames()
{
    return {"router_kv", "hdsearch_knn", "sim_gray_dag"};
}

/**
 * A fixed integer loop that calls no repository code: its time tracks
 * the speed of one core on this host, so a drifting host can be told
 * apart from a code change. Never used to rescale a metric.
 */
double
calibrationMs()
{
    const auto start = std::chrono::steady_clock::now();
    uint64_t x = 0x9E3779B97F4A7C15ull;
    for (int i = 0; i < 20'000'000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    const auto end = std::chrono::steady_clock::now();
    // Keep the loop observable so it is not folded away.
    if (x == 0)
        std::fprintf(stderr, "calibration: degenerate state\n");
    return std::chrono::duration<double, std::milli>(end - start).count();
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
resultJson(const Report &report)
{
    std::ostringstream out;
    out << "{\"correct\": " << (report.problems.empty() ? "true" : "false")
        << ", \"attempted\": " << report.attempted
        << ", \"failed\": " << report.failed << ", \"metrics\": {";
    for (size_t i = 0; i < report.metrics.size(); ++i) {
        const Report::Entry &m = report.metrics[i];
        out << (i ? ", " : "") << jsonString(m.name)
            << ": {\"value\": " << jsonNumber(m.value)
            << ", \"unit\": " << jsonString(m.unit) << "}";
    }
    out << "}}";
    return out.str();
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload <router_kv|hdsearch_knn|"
                 "sim_gray_dag> --seed <n> --seconds <s> --trace <0|1> "
                 "[--out-dir <dir>] [--commit <id>]\n");
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Args args;
    std::string commit = "unknown";
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        char *end = nullptr;
        if (key == "--workload") {
            args.workload = value;
        } else if (key == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (key == "--seconds") {
            args.seconds = int(std::strtol(value.c_str(), &end, 10));
        } else if (key == "--trace") {
            if (value != "0" && value != "1") {
                usage();
                return 2;
            }
            args.trace = value == "1";
        } else if (key == "--out-dir") {
            args.outDir = value;
        } else if (key == "--commit") {
            commit = value;
        } else {
            usage();
            return 2;
        }
        if (end != nullptr && *end != '\0') {
            std::fprintf(stderr, "perfbench: malformed %s '%s'\n",
                         key.c_str(), value.c_str());
            return 2;
        }
    }
    const auto known = workloadNames();
    if (std::find(known.begin(), known.end(), args.workload) ==
            known.end() ||
        args.seconds < 1 || args.seconds > 600) {
        usage();
        return 2;
    }

    const long long steal_before = stealTicks();
    const double calib_before = calibrationMs();

    Report report;
    if (args.workload == "sim_gray_dag")
        runSimWorkload(args, report);
    else
        runRealWorkload(args, report);

    const double calib_after = calibrationMs();
    const long long steal_after = stealTicks();

    utsname names{};
    uname(&names);
    std::ostringstream stamp;
    stamp << "{\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
          << ", \"kernel\": "
          << jsonString(std::string(names.sysname) + " " + names.release)
          << ", \"compiler\": " << jsonString(__VERSION__)
          << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
          << ", \"commit\": " << jsonString(commit)
          << ", \"cpus\": " << allowedCpuCount()
          << ", \"steal_ticks\": "
          << (steal_before >= 0 && steal_after >= 0
                  ? steal_after - steal_before
                  : -1)
          << ", \"ticks_per_s\": " << sysconf(_SC_CLK_TCK)
          << ", \"calibration_ms\": [" << jsonNumber(calib_before) << ", "
          << jsonNumber(calib_after) << "]}";

    for (const Report::Entry &n : report.notes)
        std::printf("note %-28s %.6g\n", n.name.c_str(), n.value);
    for (const std::string &problem : report.problems)
        std::printf("CHECK FAILED: %s\n", problem.c_str());
    std::printf("stamp %s\n", stamp.str().c_str());

    const std::string result = resultJson(report);
    mkdir(args.outDir.c_str(), 0755);
    const std::string tag = args.workload + "-s" +
                            std::to_string(args.seed) + "-t" +
                            (args.trace ? "1" : "0");
    std::ofstream record(args.outDir + "/" + tag + ".json");
    record << "{\"workload\": " << jsonString(args.workload)
           << ", \"seed\": " << args.seed
           << ", \"seconds\": " << args.seconds
           << ", \"trace\": " << (args.trace ? 1 : 0)
           << ", \"stamp\": " << stamp.str() << ", \"notes\": {";
    for (size_t i = 0; i < report.notes.size(); ++i) {
        record << (i ? ", " : "") << jsonString(report.notes[i].name)
               << ": " << jsonNumber(report.notes[i].value);
    }
    record << "}, \"problems\": [";
    for (size_t i = 0; i < report.problems.size(); ++i)
        record << (i ? ", " : "") << jsonString(report.problems[i]);
    record << "], \"result\": " << result << "}\n";

    if (args.trace) {
        std::ofstream spans(args.outDir + "/spans-" + args.workload +
                            "-s" + std::to_string(args.seed) + ".jsonl");
        for (const Span &span : report.spans) {
            spans << "{\"id\": " << span.id << ", \"parent\": "
                  << span.parent << ", \"request\": " << span.request
                  << ", \"name\": " << jsonString(span.name)
                  << ", \"scheduled_ns\": " << span.scheduledNs
                  << ", \"issued_ns\": " << span.issuedNs
                  << ", \"completed_ns\": " << span.completedNs << "}\n";
        }
    }

    std::printf("%s\n", result.c_str());
    std::fflush(stdout);
    return 0;
}
