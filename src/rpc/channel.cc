/**
 * @file
 * The channel resilience layer: blocking wrappers, fault injection at
 * the request/response boundaries, and the per-call deadline / retry
 * state machine shared by every transport. All time — now, deadlines,
 * retry timers, injected delays — comes from the
 * channel's bound Clock, so the machine runs identically on the real
 * timer thread and on the simulated event loop.
 */

#include "rpc/channel.h"

#include <algorithm>
#include <atomic>
#include <mutex>

#include "base/clock.h"
#include "base/logging.h"
#include "base/threading.h"
#include "ostrace/sync.h"
#include "rpc/fault.h"
#include "rpc/health.h"
#include "serde/wire.h"
#include "stats/counters.h"

namespace musuite {
namespace rpc {

namespace {

/** splitmix64 step: the mixer both jitter streams share. */
uint64_t
splitmix64(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/** splitmix64 over a global counter: cheap decorrelated jitter. */
uint64_t
nextGlobalJitterBits()
{
    static std::atomic<uint64_t> counter{0x9E3779B97F4A7C15ull};
    return splitmix64(counter.fetch_add(0x9E3779B97F4A7C15ull,
                                        std::memory_order_relaxed));
}

bool
isRetryable(const Status &status)
{
    switch (status.code()) {
      case StatusCode::Unavailable:
      case StatusCode::DeadlineExceeded:
      case StatusCode::ResourceExhausted:
        return true;
      default:
        return false;
    }
}

/**
 * Whole-call state. Attempts (the first, then retries) share it; the
 * mutex serializes completion decisions, and the user callback always
 * runs outside it. Kept alive by the attempt records and the retry
 * timer, so a late transport response after completion is harmless.
 *
 * At most one attempt is ever in flight: a retry is scheduled only
 * once the previous attempt has settled (response or deadline, never
 * both — see Attempt::settled), and only while attempts remain in the
 * budget. So every settle finds the call still open, and the budget
 * cannot be overrun by construction.
 */
struct CallState
{
    Channel *channel = nullptr;
    uint32_t method = 0;
    std::string body;
    CallOptions options;
    Channel::Callback callback;
    int64_t totalDeadlineAt = 0; //!< 0 = none.

    /**
     * Per-call jitter stream state; 0 = draw from the global stream.
     * Seeded from CallOptions::backoffJitterSeed so a simulated
     * scenario replays its backoff schedule exactly.
     */
    std::atomic<uint64_t> jitterState{0};

    Mutex mutex{LockRank::call, "rpc.call"};
    bool done GUARDED_BY(mutex) = false;
    int attemptsIssued GUARDED_BY(mutex) = 0;

    /**
     * Threads currently inside transportCall() for this call. The
     * final user callback hands channel ownership back to the caller
     * (who may destroy the channel), so it must not fire while any
     * *other* thread is still on the transport's stack — e.g. a retry
     * issued from the timer thread whose response completes on a
     * client completion thread before the issuing write returns. Each
     * issuer also links an IssueFrame on its own stack, which is how
     * completeCall tells its own thread's frames from the others.
     */
    int issuers GUARDED_BY(mutex) = 0;
    CondVar issuersQuiet;
};

/**
 * One link in the calling thread's chain of attempts it is issuing,
 * innermost first. Frames live on issueAttempt's stack, so the
 * quiescence guard needs no heap storage.
 */
struct IssueFrame
{
    const CallState *call;
    IssueFrame *outer;
};

thread_local IssueFrame *t_issuing = nullptr;

/**
 * One attempt of a call. Its transport response and its deadline
 * timer race to settle it; whoever loses becomes a no-op (a late
 * response is counted). The winner records the attempt's one outcome
 * into the channel's peer-health tracker, so each attempt yields
 * exactly one outcome record. The response callback and the deadline
 * timer share this one record.
 */
struct Attempt
{
    std::shared_ptr<CallState> call;
    int number = 0;
    int64_t deadlineNs = 0; //!< Effective attempt deadline; 0 = none.
    int64_t issuedAtNs = 0; //!< On the channel's clock.
    std::atomic<bool> settled{false};
    std::atomic<uint64_t> timerId{0}; //!< Deadline timer; 0 = none.
};

void issueAttempt(const std::shared_ptr<CallState> &state);

uint64_t
nextJitterBits(CallState &state)
{
    uint64_t seeded = state.jitterState.load(std::memory_order_relaxed);
    if (seeded == 0)
        return nextGlobalJitterBits();
    seeded += 0x9E3779B97F4A7C15ull;
    state.jitterState.store(seeded, std::memory_order_relaxed);
    return splitmix64(seeded);
}

/** Backoff for the k-th retry (k >= 1): capped doubling +/- jitter. */
int64_t
backoffDelayNs(CallState &state, int retry_index)
{
    const CallOptions &options = state.options;
    int64_t delay = options.backoffBaseNs;
    for (int i = 1; i < retry_index && delay < options.backoffMaxNs;
         ++i) {
        delay *= 2;
    }
    delay = std::min(delay, options.backoffMaxNs);
    if (options.backoffJitter > 0) {
        const double unit =
            double(nextJitterBits(state) >> 11) / double(1ull << 53);
        delay = int64_t(double(delay) *
                        (1.0 + options.backoffJitter * (2 * unit - 1)));
    }
    return delay < 0 ? 0 : delay;
}

void
completeCall(const std::shared_ptr<CallState> &state,
             const Status &status, std::string_view payload)
{
    {
        MutexLock lock(state->mutex);
        // Quiesce: wait (microseconds) until no other thread is inside
        // transportCall. Our own frames are fine — they unwind on this
        // thread before the caller can regain control.
        int own = 0;
        for (const IssueFrame *frame = t_issuing; frame != nullptr;
             frame = frame->outer)
            own += frame->call == state.get() ? 1 : 0;
        while (state->issuers > own)
            state->issuersQuiet.wait(lock);
    }
    state->callback(status, payload);
}

void
onAttemptDone(const std::shared_ptr<CallState> &state, int attempt,
              const Status &status, std::string_view payload)
{
    bool schedule_retry = false;
    int64_t retry_delay = 0;
    {
        MutexLock guard(state->mutex);
        MUSUITE_CHECK(!state->done)
            << "attempt " << attempt << " settled a completed call";
        if (isRetryable(status) &&
            state->attemptsIssued < state->options.maxAttempts) {
            retry_delay = backoffDelayNs(*state, state->attemptsIssued);
            // An explicit server pacing hint (RESOURCE_EXHAUSTED
            // retry-after) acts as a floor under the backoff: the
            // server knows its queue better than our exponential
            // schedule does. The hint is a *relative* duration, so it
            // is meaningful whatever clock the server ran on.
            retry_delay = std::max(retry_delay, status.retryAfterNs());
            schedule_retry =
                state->totalDeadlineAt == 0 ||
                state->channel->clock().nowNanos() + retry_delay <
                    state->totalDeadlineAt;
        }
        // No retry coming: this attempt's outcome is the call's.
        state->done = !schedule_retry;
    }

    if (!schedule_retry) {
        if (status.isOk() && attempt > 1) {
            static Counter &secondary_won =
                globalCounters().counter("rpc.call.secondary_won");
            secondary_won.add();
        }
        // A failed call reports its status only, never an error body.
        completeCall(state, status,
                     status.isOk() ? payload : std::string_view{});
        return;
    }

    static Counter &retry_scheduled =
        globalCounters().counter("rpc.retry.scheduled");
    retry_scheduled.add();
    // A shed response that lost its pacing hint somewhere along a
    // multi-hop chain makes us retry on our own (shorter) backoff
    // schedule — the retry-amplification signature. With hints
    // propagated end-to-end this stays at zero.
    if (status.code() == StatusCode::ResourceExhausted &&
        status.retryAfterNs() == 0) {
        static Counter &retry_amplified =
            globalCounters().counter("rpc.call.retry_amplified");
        retry_amplified.add();
    }
    state->channel->clock().schedule(retry_delay, [state] {
        assertOnTimerThread();
        issueAttempt(state);
    });
}

/** The transport answered the attempt. */
void
onAttemptResponse(Attempt &attempt, const Status &status,
                  std::string_view payload)
{
    if (attempt.settled.exchange(true)) {
        static Counter &late_response =
            globalCounters().counter("rpc.call.late_response");
        late_response.add();
        return;
    }
    Channel &channel = *attempt.call->channel;
    // The tracker classifies the status (rpc/health.h): a shedding
    // peer is alive, not failing. The latency is the attempt's real
    // round trip, injected delays included — that signal is how gray
    // (slow but successful) peers become ejectable at all.
    channel.recordAttemptOutcome(
        status, channel.clock().nowNanos() - attempt.issuedAtNs);
    if (const uint64_t id = attempt.timerId.load())
        channel.clock().cancel(id);
    onAttemptDone(attempt.call, attempt.number, status, payload);
}

/** The attempt's deadline timer fired. */
void
onAttemptDeadline(Attempt &attempt)
{
    if (attempt.settled.exchange(true))
        return;
    static Counter &deadline_expired =
        globalCounters().counter("rpc.call.deadline_expired");
    deadline_expired.add();
    const Status expired(StatusCode::DeadlineExceeded,
                         "attempt deadline expired");
    // The attempt settles locally: the transport has gone silent past
    // the deadline, and for a blackholed request it never answers.
    // Record the outcome here or a peer that swallows every request is
    // never recorded at all (see recordAttemptOutcome). The deadline
    // doubles as the latency observation: a zombie peer took at least
    // this long, and the tracker's EWMA must feel it.
    attempt.call->channel->recordAttemptOutcome(expired, attempt.deadlineNs);
    onAttemptDone(attempt.call, attempt.number, expired, {});
}

void
issueAttempt(const std::shared_ptr<CallState> &state)
{
    int number = 0;
    {
        MutexLock guard(state->mutex);
        MUSUITE_CHECK(!state->done) << "attempt issued on a completed call";
        number = ++state->attemptsIssued;
    }

    Channel &channel = *state->channel;
    Clock &clock = channel.clock();

    // Effective per-attempt deadline: the attempt budget clamped by
    // whatever remains of the whole-call budget (both instants come
    // from the channel's clock, never mixed across domains).
    int64_t deadline_ns = state->options.deadlineNs;
    if (state->totalDeadlineAt != 0) {
        const int64_t remaining =
            state->totalDeadlineAt - clock.nowNanos();
        if (remaining <= 0) {
            onAttemptDone(state, number,
                          Status(StatusCode::DeadlineExceeded,
                                 "call deadline expired"),
                          {});
            return;
        }
        deadline_ns = deadline_ns == 0
                          ? remaining
                          : std::min(deadline_ns, remaining);
    }

    auto attempt = std::make_shared<Attempt>();
    attempt->call = state;
    attempt->number = number;
    attempt->deadlineNs = deadline_ns;
    attempt->issuedAtNs = clock.nowNanos();
    if (deadline_ns > 0) {
        const uint64_t id = clock.schedule(
            deadline_ns, [attempt] { onAttemptDeadline(*attempt); });
        attempt->timerId.store(id);
        // The response may have settled before the timer was armed;
        // make sure an orphaned timer cannot linger until it fires.
        if (attempt->settled.load())
            clock.cancel(id);
    }

    IssueFrame frame{state.get(), t_issuing};
    {
        MutexLock guard(state->mutex);
        ++state->issuers;
    }
    t_issuing = &frame;
    // The effective attempt deadline doubles as the wire budget: the
    // server learns exactly how long this attempt is worth queueing.
    // The last attempt the budget allows takes the body; earlier ones
    // send a copy a retry can resend.
    channel.attemptCall(
        state->method,
        number == state->options.maxAttempts ? std::move(state->body)
                                             : state->body,
        deadline_ns,
        [attempt](const Status &status, std::string_view payload) {
            onAttemptResponse(*attempt, status, payload);
        });
    t_issuing = frame.outer;
    MutexLock guard(state->mutex);
    --state->issuers;
    state->issuersQuiet.notifyAll();
}

} // namespace

Channel::Channel() : boundClock(&currentClock()) {}

void
Channel::setPeerHealth(std::shared_ptr<PeerHealth> health_in)
{
    MUSUITE_CHECK(!health_in || &health_in->clock() == boundClock)
        << "peer health tracker bound to a different clock than its "
           "channel: outcome instants and EWMA samples would be "
           "compared across clock domains";
    health = std::move(health_in);
}

void
Channel::recordAttemptOutcome(const Status &status, int64_t latency_ns)
{
    if (health)
        health->recordOutcome(status, latency_ns);
}

void
Channel::call(uint32_t method, std::string body, Callback callback)
{
    call(method, std::move(body), CallOptions{}, std::move(callback));
}

void
Channel::call(uint32_t method, std::string body,
              const CallOptions &options, Callback callback)
{
    // A bare call on an untracked channel has nothing to settle and
    // no outcome to record: hand it straight to the transport.
    if (options.plain() && !health) {
        attemptCall(method, std::move(body), 0, std::move(callback));
        return;
    }

    auto state = std::make_shared<CallState>();
    state->channel = this;
    state->method = method;
    state->body = std::move(body);
    state->options = options;
    state->callback = std::move(callback);
    if (options.backoffJitterSeed != 0) {
        state->jitterState.store(options.backoffJitterSeed,
                                 std::memory_order_relaxed);
    }
    if (options.totalDeadlineNs > 0)
        state->totalDeadlineAt = clock().nowNanos() + options.totalDeadlineNs;

    issueAttempt(state);
}

void
Channel::attemptCall(uint32_t method, std::string body, int64_t budget_ns,
                     Callback callback)
{
    if (!injector) {
        transportCall(method, std::move(body), budget_ns,
                      std::move(callback));
        return;
    }

    // Hold our own reference: the injector may be swapped mid-call.
    std::shared_ptr<FaultInjector> fi = injector;
    const FaultDecision request_decision = fi->onRequest();
    switch (request_decision.kind) {
      case FaultDecision::Kind::Error:
        callback(request_decision.status, {});
        return;
      case FaultDecision::Kind::Drop: {
        static Counter &dropped_request =
            globalCounters().counter("rpc.fault.dropped_request");
        dropped_request.add();
        return; // Never completes; a per-call deadline recovers.
      }
      default:
        break;
    }

    Callback inspected =
        [this, fi, callback = std::move(callback)](
            const Status &status, std::string_view payload) {
            const FaultDecision decision = fi->onResponse();
            switch (decision.kind) {
              case FaultDecision::Kind::Drop: {
                static Counter &dropped_response =
                    globalCounters().counter("rpc.fault.dropped_response");
                dropped_response.add();
                return;
              }
              case FaultDecision::Kind::Delay: {
                std::string copy = acquireWireBuffer(payload.size());
                if (!payload.empty())
                    copy.assign(payload.data(), payload.size());
                clock().schedule(
                    decision.delayNs,
                    [callback, status, copy = std::move(copy)]() mutable {
                        callback(status, copy);
                        releaseWireBuffer(std::move(copy));
                    });
                return;
              }
              default:
                callback(status, payload);
            }
        };

    if (request_decision.kind == FaultDecision::Kind::Delay) {
        clock().schedule(
            request_decision.delayNs,
            [this, method, budget_ns, body = std::move(body),
             inspected = std::move(inspected)]() mutable {
                transportCall(method, std::move(body), budget_ns,
                              std::move(inspected));
            });
        return;
    }
    transportCall(method, std::move(body), budget_ns,
                  std::move(inspected));
}

Reply
Channel::callSync(uint32_t method, std::string body)
{
    return callSync(method, std::move(body), CallOptions{});
}

Reply
Channel::callSync(uint32_t method, std::string body,
                  const CallOptions &options)
{
    // One-shot rendezvous built on the traced primitives so that sync
    // calls contribute futex counts exactly like the real client-side
    // blocking path would. Real-clock bindings only: under a SimClock
    // nothing advances virtual time while this thread blocks, so a
    // sim caller must pump the event loop instead (sim::simCallSync).
    struct Rendezvous
    {
        TracedMutex mutex;
        TracedCondVar ready;
        bool done = false;
        Status status;
        std::string payload;
    };
    auto cell = std::make_shared<Rendezvous>();

    call(method, std::move(body), options,
         [cell](const Status &status, std::string_view payload) {
             {
                 std::unique_lock<TracedMutex> lock(cell->mutex);
                 cell->status = status;
                 cell->payload.assign(payload.data(), payload.size());
                 cell->done = true;
             }
             cell->ready.notify_one();
         });

    std::unique_lock<TracedMutex> lock(cell->mutex);
    cell->ready.wait(lock, [&] { return cell->done; });
    return Reply(std::move(cell->status), std::move(cell->payload));
}

} // namespace rpc
} // namespace musuite
