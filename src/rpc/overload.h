/**
 * @file
 * Server-side admission control for the murpc fabric.
 *
 * µSuite's central experiment drives the mid-tier through saturation;
 * past the knee an uncontrolled dispatch queue grows without bound and
 * every queued request eventually misses its deadline, so throughput
 * survives while *goodput* (in-deadline responses) collapses. The
 * server consults an admission policy on the poller thread, before a
 * request is copied or queued:
 *
 *  - AdmissionController — pluggable admit/reject policy.
 *  - GradientAdmission   — adaptive concurrency limit, AIMD on the
 *    observed request residence time against a windowed minimum RTT
 *    (the no-queueing service time). The limit shrinks multiplicatively
 *    while residence exceeds tolerance × minRTT and creeps back up
 *    additively while it does not, so the queue hovers near empty at
 *    any service rate without manual tuning.
 *
 * The rest of the overload layer lives with the code it gates: the
 * bounded dispatch queue (ServerOptions::queueCapacity) and in-queue
 * expiry in rpc/server.h, and the client's half — deadlines, retry
 * budgets paced by the server's retry-after hints — in rpc/channel.h.
 * Fast-failing a bad peer is outlier ejection's job (rpc/health.h).
 */

#ifndef MUSUITE_RPC_OVERLOAD_H
#define MUSUITE_RPC_OVERLOAD_H

#include <cstddef>
#include <cstdint>

#include "base/threading.h"

namespace musuite {
namespace rpc {

/**
 * Server-side admission policy. The server consults admit() on the
 * network (poller) thread for every arriving request before any work
 * is done for it; admitted requests report back exactly once, either
 * through onAdmittedComplete (with their total server residence) or
 * through onAdmittedDropped (shed after admission, e.g. queue full).
 * Implementations synchronize internally: admit() runs on poller
 * threads while completions land from worker/handler threads.
 */
class AdmissionController
{
  public:
    virtual ~AdmissionController() = default;

    /** True to accept the request, false to shed it. */
    virtual bool admit() = 0;

    /** An admitted request completed; latency is arrival→respond. */
    virtual void onAdmittedComplete(int64_t latency_ns) { (void)latency_ns; }

    /** An admitted request was shed before producing a response. */
    virtual void onAdmittedDropped() {}

    /**
     * Suggested retry-after for a rejection, carried to the client in
     * the response header (0 = let the server pick its default).
     */
    virtual int64_t retryAfterHintNs() const { return 0; }
};

/**
 * Adaptive concurrency limiter: admit while the number of admitted,
 * not-yet-completed requests is under a limit steered by AIMD on
 * observed latency versus a windowed minimum RTT.
 */
class GradientAdmission : public AdmissionController
{
  public:
    struct Options
    {
        /** Starting and clamping bounds for the concurrency limit. */
        double initialLimit = 16.0;
        double minLimit = 1.0;
        double maxLimit = 1024.0;
        /** Residence above tolerance × minRTT means "queueing". */
        double tolerance = 2.0;
        /** Multiplicative decrease factor on a queueing sample. */
        double decrease = 0.95;
        /** Additive increase (spread over `limit` samples) otherwise. */
        double increase = 1.0;
        /** Samples per minimum-RTT tracking window. */
        uint64_t rttWindow = 100;
    };

    // Two constructors rather than one defaulted `= {}` argument:
    // gcc rejects brace default arguments for nested aggregates with
    // member initializers (PR 88165).
    GradientAdmission() : GradientAdmission(Options()) {}
    explicit GradientAdmission(Options options);

    bool admit() override;
    void onAdmittedComplete(int64_t latency_ns) override;
    void onAdmittedDropped() override;
    int64_t retryAfterHintNs() const override;

    /** Current concurrency limit (tests / reporting). */
    double currentLimit() const;
    /** Windowed minimum RTT estimate (0 until the first sample). */
    int64_t minRttNs() const;
    /** Admitted requests currently in the server. */
    size_t inflight() const;

  private:
    const Options options;
    mutable Mutex mutex{LockRank::admission, "rpc.admission"};
    double limit GUARDED_BY(mutex);
    size_t inflightCount GUARDED_BY(mutex) = 0;
    int64_t minRtt GUARDED_BY(mutex) = 0;        //!< Committed estimate.
    int64_t windowMin GUARDED_BY(mutex) = 0;     //!< Min of current window.
    uint64_t windowSamples GUARDED_BY(mutex) = 0;
};

} // namespace rpc
} // namespace musuite

#endif // MUSUITE_RPC_OVERLOAD_H
