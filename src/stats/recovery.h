/**
 * @file
 * Time-bucketed goodput tracking and recovery-time measurement.
 *
 * The chaos experiments need more than end-of-run percentiles: they
 * ask *when* a system detected a fault and *when* it got back to
 * healthy throughput after the fault cleared. A GoodputTracker bins
 * completions into fixed-width time buckets (virtual or wall ns —
 * the tracker only sees instants) so a bench can measure baseline
 * goodput before a fault, then find the first instant after the
 * fault clears at which goodput returns to a fraction of that
 * baseline and *stays* there for a sustain window.
 *
 * Header-only and unsynchronized: feed it from one thread (the sim's
 * clock-pumping thread, or a loadgen's completion path behind its own
 * lock).
 */

#ifndef MUSUITE_STATS_RECOVERY_H
#define MUSUITE_STATS_RECOVERY_H

#include <algorithm>
#include <cstdint>
#include <vector>

namespace musuite {

class GoodputTracker
{
  public:
    /** `bucket_ns` is the binning resolution; recovery instants are
     *  reported at bucket granularity. */
    explicit GoodputTracker(int64_t bucket_ns = 10'000'000)
        : bucketNs(bucket_ns > 0 ? bucket_ns : 1)
    {}

    /** Record one completion at instant `at_ns`; `good` marks it as
     *  counting toward goodput (ok and within deadline). */
    void
    record(int64_t at_ns, bool good)
    {
        if (at_ns < 0)
            return;
        const size_t bucket = size_t(at_ns / bucketNs);
        if (bucket >= buckets.size())
            buckets.resize(bucket + 1, 0);
        if (good)
            ++buckets[bucket];
    }

    /** Mean goodput over [from_ns, to_ns), in requests/sec. */
    double
    goodputQps(int64_t from_ns, int64_t to_ns) const
    {
        if (to_ns <= from_ns)
            return 0.0;
        uint64_t good = 0;
        const size_t first = size_t(from_ns / bucketNs);
        const size_t last = size_t((to_ns - 1) / bucketNs);
        for (size_t b = first; b <= last && b < buckets.size(); ++b)
            good += buckets[b];
        return double(good) * 1e9 / double(to_ns - from_ns);
    }

    /**
     * Time from `from_ns` (typically the fault-clear instant) until
     * *mean* goodput over a sliding `sustain_ns` window first reaches
     * `fraction * baseline_qps`. The window mean — not every single
     * bucket — is what must clear the bar, so stochastic arrival
     * processes (Poisson gaps straddling bucket edges) don't make
     * recovery unreachable. Returns -1 if it never recovers within
     * the recorded data. Bucket-granular.
     */
    int64_t
    recoveryTimeNs(int64_t from_ns, double baseline_qps,
                   double fraction, int64_t sustain_ns) const
    {
        if (baseline_qps <= 0.0)
            return -1;
        const size_t sustain_buckets = size_t(
            std::max<int64_t>(1, (sustain_ns + bucketNs - 1) /
                                     bucketNs));
        const double need = baseline_qps * fraction *
                            double(int64_t(sustain_buckets) *
                                   bucketNs) /
                            1e9;
        const size_t first = size_t(from_ns / bucketNs) +
                             (from_ns % bucketNs != 0 ? 1 : 0);
        for (size_t b = first; b + sustain_buckets <= buckets.size();
             ++b) {
            uint64_t good = 0;
            for (size_t s = 0; s < sustain_buckets; ++s)
                good += buckets[b + s];
            if (double(good) >= need)
                return int64_t(b) * bucketNs - from_ns;
        }
        return -1;
    }

  private:
    int64_t bucketNs;
    /** buckets[i] = good completions in [i*bucketNs, (i+1)*bucketNs). */
    std::vector<uint64_t> buckets;
};

} // namespace musuite

#endif // MUSUITE_STATS_RECOVERY_H
