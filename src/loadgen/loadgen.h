/**
 * @file
 * Load generators with the paper's measurement methodology (§V).
 *
 * Two modes, used exactly as the paper uses them:
 *
 *  - Closed loop: a fixed number of synchronous workers issue
 *    back-to-back requests; used only to establish peak sustainable
 *    (saturation) throughput, where latency is meaningless.
 *
 *  - Open loop: request send times are drawn a priori as a Poisson
 *    arrival schedule following a LoadShape (loadgen/scenario.h) and
 *    laid out on the generator's bound Clock, which is either binding:
 *    it waits with Clock::sleepUntil, so the same replayer sleeps on
 *    the real clock and steps a SimClock's event loop in virtual time.
 *    Latency for request i is measured from its *scheduled* send time,
 *    so a stalled service inflates the latency of every queued request
 *    instead of silently pausing the generator. This is the defence
 *    against the coordinated-omission problem the paper calls out in
 *    CloudSuite/YCSB-style closed-loop testers. Each request leaves a
 *    RequestSpan (scheduled, issued, completed, outcome); the
 *    per-phase reports, bucketed by scheduled time so a bench can show
 *    tails *through* a flash crowd, are counted from those spans.
 */

#ifndef MUSUITE_LOADGEN_LOADGEN_H
#define MUSUITE_LOADGEN_LOADGEN_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "base/clock.h"
#include "base/status.h"
#include "loadgen/scenario.h"
#include "stats/histogram.h"

namespace musuite {

/**
 * Per-request result reported back to a load generator. Implicitly
 * constructible from bool so existing `done(true)` call sites keep
 * working; set `degraded` when the service answered with a partial
 * (quorum-merged) response.
 */
struct RequestOutcome
{
    RequestOutcome(bool ok_in = true) : ok(ok_in) {}
    RequestOutcome(bool ok_in, bool degraded_in)
        : ok(ok_in), degraded(degraded_in)
    {
    }

    /** A request the server explicitly refused (RESOURCE_EXHAUSTED)
     *  rather than failed: overload shedding, not breakage. */
    static RequestOutcome
    shedRequest()
    {
        RequestOutcome outcome(false);
        outcome.shed = true;
        return outcome;
    }

    bool ok = true;
    bool degraded = false;
    bool shed = false;
};

/** Outcome of one load-generation run. */
struct LoadResult
{
    Histogram latency;        //!< End-to-end ns per completed request.
    uint64_t issued = 0;
    uint64_t completed = 0;
    uint64_t errors = 0;      //!< All failures, sheds included.
    uint64_t shed = 0;        //!< Failures that were explicit sheds.
    uint64_t degraded = 0;    //!< Completed, but partial results.
    double offeredQps = 0.0;  //!< Open loop only.
    double achievedQps = 0.0; //!< completed / elapsed.
    int64_t elapsedNs = 0;

    /** Drop rate sanity check for experiments. */
    double
    errorRate() const
    {
        return issued ? double(errors) / double(issued) : 0.0;
    }

    /** Fraction of completions that carried partial results. */
    double
    degradedRate() const
    {
        return completed ? double(degraded) / double(completed) : 0.0;
    }

    /**
     * Completions that landed within `deadline_ns` — goodput, the
     * metric the overload experiments report instead of raw
     * throughput (0 = no deadline: every completion counts).
     */
    uint64_t
    goodputCount(int64_t deadline_ns) const
    {
        return deadline_ns > 0 ? latency.countAtOrBelow(deadline_ns)
                               : completed;
    }

    /** Shed/accept/goodput view of this run against a deadline. */
    ShedAcceptBreakdown
    breakdown(int64_t deadline_ns) const
    {
        ShedAcceptBreakdown out;
        out.offered = issued;
        out.completed = completed;
        out.shed = shed;
        out.failed = errors >= shed ? errors - shed : 0;
        out.goodput = goodputCount(deadline_ns);
        return out;
    }
};

/**
 * One open-loop request, in ns since the run started on the
 * generator's clock.
 */
struct RequestSpan
{
    int64_t scheduledNs = 0;  //!< Its arrival in the schedule.
    int64_t issuedNs = 0;     //!< When issue() was called for it.
    int64_t completedNs = -1; //!< When done() ran; -1 = not by the drain.
    RequestOutcome outcome;   //!< Meaningful once completed.

    bool completed() const { return completedNs >= 0; }
    /** Scheduled-to-completed: the latency the phases record. */
    int64_t latencyNs() const { return completedNs - scheduledNs; }
};

class OpenLoopLoadGen
{
  public:
    /**
     * Issue one asynchronous request. Must not block (nor run a
     * SimClock's loop); call done() exactly once (from any thread)
     * with the request's outcome (a bare bool still converts —
     * degraded defaults to false).
     */
    using AsyncIssue = std::function<void(
        uint64_t seq, std::function<void(RequestOutcome)> done)>;

    struct Options
    {
        loadgen::LoadShape shape;   //!< Offered load over time.
        int64_t durationNs = 1'000'000'000;
        uint64_t seed = 1;          //!< Seeds the arrival schedule.
        int64_t drainTimeoutNs = 5'000'000'000; //!< Wait for stragglers.
        /**
         * Ascending phase starts (ns since run start) for per-phase
         * reports; phase i holds the requests *scheduled* in
         * [phaseBounds[i], phaseBounds[i+1]). Empty = one phase.
         */
        std::vector<int64_t> phaseBounds;
    };

    /** Binds the ambient clock (currentClock()), as channels do. */
    explicit OpenLoopLoadGen(Options options)
        : options(std::move(options)), clock(currentClock())
    {}

    /**
     * Replay arrivalSchedule(shape, durationNs, seed) on the calling
     * thread, issuing each arrival once the clock reaches it, and
     * drain for up to drainTimeoutNs. Returns one LoadResult per
     * phase, counted from the spans. A phase's offeredQps is the
     * shape's rate at the phase midpoint; the last phase's window
     * ends at the later of durationNs and the last completion.
     */
    std::vector<LoadResult> run(const AsyncIssue &issue);

    /** The last run's spans, indexed by seq. */
    const std::vector<RequestSpan> &spans() const { return lastSpans; }

  private:
    Options options;
    Clock &clock;
    std::vector<RequestSpan> lastSpans;
};

class ClosedLoopLoadGen
{
  public:
    /** Issue one synchronous request; return success. */
    using SyncIssue = std::function<bool(uint64_t seq)>;

    struct Options
    {
        int workers = 8;
        int64_t durationNs = 1'000'000'000;
    };

    explicit ClosedLoopLoadGen(Options options) : options(options) {}

    LoadResult run(const SyncIssue &issue);

  private:
    Options options;
};

/**
 * Establish peak sustainable throughput by sweeping closed-loop worker
 * counts until the achieved QPS plateaus (< plateau_fraction gain), as
 * the paper does for Fig. 9.
 *
 * @param issue Synchronous request issuer shared by all workers.
 * @param per_step_ns Measurement window per worker count.
 * @return Peak achieved QPS observed.
 */
double findSaturationThroughput(const ClosedLoopLoadGen::SyncIssue &issue,
                                int max_workers = 64,
                                int64_t per_step_ns = 500'000'000,
                                double plateau_fraction = 0.05);

} // namespace musuite

#endif // MUSUITE_LOADGEN_LOADGEN_H
