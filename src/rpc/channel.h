/**
 * @file
 * Abstract client channel for unary RPCs, plus the per-call resilience
 * layer every transport shares.
 *
 * µSuite mid-tiers act as RPC clients to their leaves; they issue
 * calls asynchronously and merge responses on completion threads
 * (paper §IV "asynchronous communication with leaf microservers").
 * Channel is the seam between service logic and transport: the TCP
 * client (rpc/client.h), the in-process channel (rpc/local_channel.h)
 * and the simulated link (simkernel/sim_transport.h) each implement
 * transportCall(), so services and tests share one code path —
 * including the resilience features layered on top here:
 *
 *  - per-call deadlines (attempt-level and whole-call), propagated to
 *    the server as a wire budget so queues can shed expired work,
 *  - retry budgets with exponential backoff + jitter, paced by the
 *    server's RESOURCE_EXHAUSTED retry-after hints; a retry is issued
 *    only after the previous attempt settles, so a call never has more
 *    than one attempt in flight,
 *  - deterministic fault injection (rpc/fault.h),
 *  - per-attempt outcome recording into an attached peer-health
 *    tracker (rpc/health.h), which outlier ejection reads to stop
 *    sending legs to a bad peer.
 *
 * THREADING CONTRACT: a callback may run on a completion thread, on
 * the bound clock's timer-dispatch context (the shared timer thread
 * under RealClock, the event-loop-pumping thread under SimClock), or
 * *synchronously on the caller's own thread inside call()* — e.g.
 * when the transport fails inline (connect refused) or a fault
 * injector errors the request. Callers must not hold locks across
 * call() that the callback also takes, and must not assume
 * completion-thread context.
 *
 * CLOCK SEAM: every instant the resilience layer computes — attempt
 * deadlines, total-deadline cutoffs, retry fire times —
 * comes from the channel's bound Clock (base/clock.h), so the whole
 * state machine runs unmodified under the simulated clock.
 */

#ifndef MUSUITE_RPC_CHANNEL_H
#define MUSUITE_RPC_CHANNEL_H

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"

namespace musuite {

class Clock;

namespace rpc {

class FaultInjector;
class PeerHealth;

/**
 * Per-call resilience options, the one deadline mechanism on every
 * transport. The defaults are "one attempt, wait forever".
 */
struct CallOptions
{
    /**
     * Per-attempt deadline; 0 = none. An attempt still pending when it
     * expires completes with DEADLINE_EXCEEDED (and may be retried). A
     * transport completion arriving after that is dropped and counted
     * under the rpc.call.late_response counter; on TCP that includes
     * the failure a dropped connection or a destroyed client delivers.
     */
    int64_t deadlineNs = 0;

    /** Whole-call deadline across attempts and backoff; 0 = none. */
    int64_t totalDeadlineNs = 0;

    /**
     * Total attempts including the first (1 = no retry). Retries fire
     * only for UNAVAILABLE / DEADLINE_EXCEEDED / RESOURCE_EXHAUSTED.
     */
    int maxAttempts = 1;

    /** First retry delay; doubles per retry up to backoffMaxNs. */
    int64_t backoffBaseNs = 1'000'000;
    int64_t backoffMaxNs = 200'000'000;
    /** Uniform +/- fraction applied to each backoff delay. */
    double backoffJitter = 0.2;

    /**
     * Seed for the backoff jitter stream. 0 (the default) draws from a
     * process-global decorrelated stream — fine for production, where
     * cross-call decorrelation is the whole point of jitter. A nonzero
     * seed gives this call its own splitmix64 stream so a simulated
     * scenario replays its backoff schedule bit-for-bit run to run.
     */
    uint64_t backoffJitterSeed = 0;

    /** True if any feature beyond a bare transport call is enabled. */
    bool
    plain() const
    {
        return deadlineNs == 0 && totalDeadlineNs == 0 &&
               maxAttempts <= 1;
    }
};

class Channel
{
  public:
    /**
     * Completion callback. See the threading contract above: it may
     * run inline in call(), on a completion thread, or on the timer
     * thread. The payload view is valid only during the call.
     */
    using Callback = std::function<void(const Status &, std::string_view)>;

    /** Binds the ambient clock (base/clock.h) at construction. */
    Channel();

    virtual ~Channel() = default;

    /**
     * The clock this channel reads time from and arms its deadline,
     * retry, and fault-delay timers on. One call runs entirely
     * in one clock domain: every absolute instant the resilience layer
     * computes comes from this clock.
     */
    Clock &clock() const { return *boundClock; }

    /**
     * Rebind the channel to another clock. Not synchronized against
     * in-flight calls: rebind before traffic, like setFaultInjector.
     * An attached peer-health tracker must live in the same clock
     * domain (setPeerHealth checks).
     */
    void bindClock(Clock &clock_in) { boundClock = &clock_in; }

    /**
     * Issue an asynchronous unary call with default options (single
     * attempt, no deadline). There is no association between the
     * calling thread and the RPC; all state is explicit in the
     * callback closure.
     */
    void call(uint32_t method, std::string body, Callback callback);

    /**
     * Issue an asynchronous unary call with per-call deadline and
     * retry behaviour. The channel must outlive the call, including
     * any pending retry.
     */
    void call(uint32_t method, std::string body,
              const CallOptions &options, Callback callback);

    /** True if the channel can currently reach its target. */
    virtual bool isHealthy() const { return true; }

    /**
     * Write-combining hints. Between corkWrites() and the matching
     * uncorkWrites(), a transport may hold frames back and flush them
     * all at uncork — ideally one scatter-gather syscall per
     * connection — so a caller issuing many calls back to back (a
     * fan-out, a pipelined batch) pays one sendmsg instead of one per
     * call. Purely advisory: the defaults are no-ops (in-process
     * channels have no wire), calls stay asynchronous, and nesting is
     * allowed. corkWrites() returns whether it held anything back,
     * i.e. whether the uncorkWrites() that ends the batch does any
     * work; the defaults return false. Prefer ScopedWriteBatch over
     * raw cork/uncork pairs.
     */
    virtual bool corkWrites() { return false; }
    virtual void uncorkWrites() {}

    /**
     * Blocking convenience wrappers over call(): the Reply holds what
     * the callback would have received.
     */
    Reply callSync(uint32_t method, std::string body);
    Reply callSync(uint32_t method, std::string body,
                   const CallOptions &options);

    /**
     * Attach (or clear) a fault injector consulted on every request
     * and response through this channel. Not synchronized against
     * in-flight calls: install before traffic or between runs.
     */
    void
    setFaultInjector(std::shared_ptr<FaultInjector> injector_in)
    {
        injector = std::move(injector_in);
    }

    FaultInjector *faultInjector() const { return injector.get(); }

    /**
     * Attach (or clear) a per-peer health tracker (rpc/health.h) fed
     * every attempt outcome through this channel, with the measured
     * attempt latency when one is available. With a tracker attached,
     * even a call with plain() options runs as a one-attempt call of
     * the resilience layer, so its outcome is recorded. Usually
     * installed by EjectionPolicy::watch() rather than directly. Must
     * share the channel's clock (outcome instants and EWMA samples are
     * pinned to this channel's timeline); mixing domains aborts.
     * Install before traffic, like the fault injector.
     */
    void setPeerHealth(std::shared_ptr<PeerHealth> health_in);

    PeerHealth *peerHealth() const { return health.get(); }

    /**
     * One attempt: fault injection at both boundaries around the
     * transport, and nothing else — no deadline, retry or outcome
     * recording. budget_ns is the remaining deadline this attempt
     * grants the server (0 = unlimited); it is carried in the request
     * header so downstream queues can shed the request once it
     * expires. The resilience layer funnels every attempt through
     * here.
     */
    void attemptCall(uint32_t method, std::string body,
                     int64_t budget_ns, Callback callback);

    /**
     * Feed one attempt outcome to the peer-health tracker without
     * issuing a call (tests script a peer's history this way). The
     * resilience layer calls it once per attempt, from whichever of
     * the attempt's transport response and its deadline timer settles
     * it: a blackholed attempt is recorded by its timer, so a peer
     * that swallows every request still looks failing to outlier
     * ejection, and a response arriving after the timer settled the
     * attempt is not recorded at all. A late success after a deadline
     * expiry is per-call trivia, not peer-health evidence: counting
     * it would let a peer whose every answer overshoots its deadline
     * keep "succeeding" its way out of ejection forever.
     *
     * latency_ns is the attempt's observed round trip; < 0 means
     * "unknown" and leaves the health tracker's latency EWMA
     * untouched (rates and streaks still update). A locally settled
     * deadline expiry passes the attempt deadline itself — the peer
     * provably took at least that long, which is exactly the signal a
     * zombie leaf must raise.
     */
    void recordAttemptOutcome(const Status &status,
                              int64_t latency_ns = -1);

  protected:
    /**
     * Transport implementation of one attempt. budget_ns is the
     * attempt's remaining deadline (0 = unlimited), for the transport
     * to hand to the server; enforcing it client-side is this layer's
     * job, not the transport's. Must invoke the callback exactly once,
     * from any thread (inline included).
     */
    virtual void transportCall(uint32_t method, std::string body,
                               int64_t budget_ns, Callback callback) = 0;

  private:
    std::shared_ptr<FaultInjector> injector;
    std::shared_ptr<PeerHealth> health;
    Clock *boundClock; //!< Never null; see clock().
};

/**
 * RAII write batch over a set of channels: add() corks a channel the
 * first time it appears (duplicates are fine), the destructor uncorks
 * every channel whose cork held writes back. A batch over channels
 * without a wire (in-process, simulated) remembers nothing and so
 * allocates nothing. Scope it around a burst of call()s; responses
 * cannot arrive before the frames flush, so the batch must end before
 * any blocking wait on completions.
 */
class ScopedWriteBatch
{
  public:
    ScopedWriteBatch() = default;
    explicit ScopedWriteBatch(Channel *channel) { add(channel); }

    ScopedWriteBatch(const ScopedWriteBatch &) = delete;
    ScopedWriteBatch &operator=(const ScopedWriteBatch &) = delete;

    ~ScopedWriteBatch()
    {
        for (Channel *channel : corked)
            channel->uncorkWrites();
    }

    void
    add(Channel *channel)
    {
        if (!channel ||
            std::find(corked.begin(), corked.end(), channel) !=
                corked.end())
            return;
        if (channel->corkWrites())
            corked.push_back(channel);
    }

  private:
    std::vector<Channel *> corked;
};

} // namespace rpc
} // namespace musuite

#endif // MUSUITE_RPC_CHANNEL_H
