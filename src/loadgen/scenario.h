/**
 * @file
 * Load-shape scenario library: time-varying offered load as data.
 *
 * A LoadShape maps an instant to an offered QPS — constant, diurnal
 * cycle, or flash crowd — and arrivalSchedule() turns a shape into a
 * concrete, deterministic Poisson arrival schedule (thinning over the
 * shape's peak rate), expressed as offsets from t=0. It is the only
 * place arrivals are drawn, and it is clock-agnostic: one replayer,
 * OpenLoopLoadGen (loadgen.h), waits for each offset on whichever
 * Clock it is bound to, sleeping on the real clock and stepping a
 * SimClock in virtual time, so the identical workload drives both
 * modes. Coordinated-omission-safe by construction: arrival instants
 * are fixed up front and never shifted by response latency.
 */

#ifndef MUSUITE_LOADGEN_SCENARIO_H
#define MUSUITE_LOADGEN_SCENARIO_H

#include <cstdint>
#include <vector>

namespace musuite {
namespace loadgen {

struct LoadShape
{
    enum class Kind {
        Constant,   //!< baseQps throughout.
        Diurnal,    //!< Sinusoid between baseQps and peakQps.
        FlashCrowd, //!< baseQps with a peakQps burst window.
    };

    Kind kind = Kind::Constant;
    double baseQps = 1000.0;
    double peakQps = 1000.0;
    int64_t periodNs = 1'000'000'000;  //!< Diurnal cycle length.
    int64_t burstStartNs = 0;          //!< Flash-crowd window start...
    int64_t burstDurationNs = 0;       //!< ...and length.

    static LoadShape constant(double qps);
    static LoadShape diurnal(double base_qps, double peak_qps,
                             int64_t period_ns);
    static LoadShape flashCrowd(double base_qps, double spike_qps,
                                int64_t start_ns, int64_t duration_ns);

    /** Offered rate at `t_ns` since the run started. */
    double qpsAt(int64_t t_ns) const;
    /** Upper bound of qpsAt over any horizon (thinning envelope). */
    double maxQps() const;
};

/**
 * Deterministic Poisson arrivals following `shape` over [0,
 * duration_ns), as non-decreasing offsets from the run start.
 * Identical (shape, duration, seed) yields the identical schedule.
 */
std::vector<int64_t> arrivalSchedule(const LoadShape &shape,
                                     int64_t duration_ns,
                                     uint64_t seed);

} // namespace loadgen
} // namespace musuite

#endif // MUSUITE_LOADGEN_SCENARIO_H
