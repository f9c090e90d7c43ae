/**
 * @file
 * murpc server: the µSuite mid-tier/leaf threading skeleton (Fig. 8).
 *
 * A Server owns
 *   - one TCP listener,
 *   - N network poller threads that park in epoll_pwait on the
 *     front-end sockets (blocking design) or spin (polling design,
 *     §VII ablation),
 *   - a producer-consumer task queue guarded by traced mutex/condvar
 *     (the futex hot spot the paper measures), and
 *   - M worker threads that pull dispatched requests and run handlers
 *     (dispatch design), unless inline mode runs handlers directly on
 *     the poller thread (deployment leaves; the §VII in-line ablation
 *     for the mid-tier).
 *
 * Handlers receive a shared ServerCall and may respond from any
 * thread, which is how mid-tiers respond from leaf-response completion
 * threads after fan-out merges.
 *
 * OVERLOAD CONTROL (rpc/overload.h): every request, from the wire
 * (handleFrame) or in-process (invokeLocal), takes one entry path on
 * either clock, and two shedding tiers keep goodput near peak once
 * offered load passes saturation. In entry order:
 *  1. Admission — an optional AdmissionController decides first; a
 *     reject is answered RESOURCE_EXHAUSTED with the controller's
 *     retry-after (overload.admission_rejected).
 *  2. The bound — the virtual-time station on a simulated clock with
 *     serviceNs > 0, the task queue on a started dispatch server on
 *     the real clock, or none (inline). A full station or queue sheds
 *     the request (overload.queue_rejected) instead of blocking.
 * Then the handler runs. Every admitted request feeds its server
 * residence, real or virtual, back to the admission controller when
 * it completes. A request whose budget is already spent is refused by
 * the mid-tier handler before it fans out (failFastIfExpired in
 * services/common/fanout.h), not by the server.
 *
 * VIRTUAL TIME: simulated deployments never start() their servers;
 * their requests enter through invokeLocal and take the same order,
 * with the station's virtual worker slots as the bound.
 */

#ifndef MUSUITE_RPC_SERVER_H
#define MUSUITE_RPC_SERVER_H

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/queue.h"
#include "base/threading.h"
#include "net/frame.h"
#include "net/poller.h"
#include "ostrace/sync.h"
#include "rpc/message.h"
#include "rpc/overload.h"

namespace musuite {

class Clock;

namespace rpc {

/** Retry-after hint on a RESOURCE_EXHAUSTED response that carries
 *  none of its own. */
constexpr int64_t kDefaultRetryAfterNs = 1'000'000;

/** Threading-model knobs (paper §IV design + §VII ablations). */
struct ServerOptions
{
    int pollerThreads = 1;     //!< Network (request-reception) threads.
    int workerThreads = 4;     //!< RPC-handler threads.
    bool dispatchToWorkers = true; //!< false: inline on poller thread.
    bool blockingPoll = true;  //!< false: busy-poll epoll with 0 timeout.
    /**
     * > 0 enables the adaptive block/poll policy the paper's §VII
     * proposes: pollers busy-poll while work keeps arriving and fall
     * back to blocking after this many consecutive empty polls
     * (overrides blockingPoll).
     */
    int adaptiveIdleStreak = 0;
    size_t queueCapacity = 1 << 16;
    std::string name = "srv";

    /**
     * Admission policy consulted first for every request; null admits
     * everything. Shared so tests and benchmarks can keep a handle for
     * inspection while the server uses it.
     */
    std::shared_ptr<AdmissionController> admission;

    /** Virtual service time per request on a simulated clock; 0 runs
     *  handlers without the station (see Server::invokeLocal). */
    int64_t serviceNs = 0;
};

/**
 * One in-flight request. Handlers must call respond() exactly once;
 * the call object may outlive the handler (asynchronous completion).
 */
class ServerCall
{
  public:
    /**
     * Completion sink. `retry_after_ns` is a pacing hint attached to
     * RESOURCE_EXHAUSTED responses (0 = none): the wire responder
     * copies it into the response header's budget slot and transports
     * surface it as `Status::retryAfterNs()`, so a shedding *leaf*'s
     * hint survives mid-tier hops instead of being re-minted at each
     * one (retry-amplification fix).
     */
    using Responder =
        std::function<void(StatusCode, std::string_view, int64_t)>;

    /**
     * `clock` is the Clock arrival/residence/budget instants are read
     * from (null = the ambient clock). The wire budget is pinned to it
     * on arrival, so a call's deadline arithmetic never crosses clock
     * domains.
     */
    ServerCall(uint32_t method, std::string body, uint64_t request_id,
               Responder responder, int64_t deadline_at_ns = 0,
               Clock *clock = nullptr);
    ~ServerCall();

    uint32_t method() const { return methodId; }
    const std::string &body() const { return requestBody; }
    uint64_t requestId() const { return id; }
    /** Monotonic ns when the request frame was parsed. */
    int64_t arrivalNanos() const { return arrivalNs; }

    /** Absolute monotonic deadline from the wire budget; 0 = none. */
    int64_t deadlineNanos() const { return deadlineAtNs; }

    /**
     * True once the request's budget has run out. A 1 ns budget is
     * the sentinel an expired caller forwards (remainingBudgetNs), so
     * it counts as spent too.
     */
    bool
    budgetSpent() const
    {
        return deadlineAtNs != 0 && remainingBudgetNs() <= 1;
    }

    /**
     * Budget left for downstream work, for deadline propagation: a
     * mid-tier handler passes this to its fan-out so leaf attempts
     * inherit what remains of the client's deadline. 0 = unlimited (no
     * deadline on the wire); an expired call reports 1ns, so
     * downstream calls fail fast rather than look unbounded.
     */
    int64_t remainingBudgetNs() const;

    /**
     * Attach the admission controller that admitted this request; its
     * onAdmittedComplete() fires from respond() with the request's
     * full server residence. Pre-dispatch only (not thread-safe).
     */
    void
    setAdmission(std::shared_ptr<AdmissionController> admission_in)
    {
        admission = std::move(admission_in);
    }

    /**
     * The request was shed after admission without producing a
     * latency sample (e.g. queue overflow): report the drop and
     * detach, so the follow-up respond() does not feed the limiter.
     */
    void
    admissionDropped()
    {
        if (admission) {
            admission->onAdmittedDropped();
            admission.reset();
        }
    }

    /**
     * Complete the RPC. Thread-safe; second and later calls are
     * ignored (with a warning) so races between a handler error path
     * and an async completion are benign.
     */
    void respond(StatusCode code, std::string_view payload);

    /**
     * Variant carrying an explicit retry-after pacing hint upstream;
     * meaningful with RESOURCE_EXHAUSTED (ignored for other codes by
     * the wire encoder), where 0 becomes kDefaultRetryAfterNs.
     * Mid-tiers that fail because a downstream shed must forward the
     * downstream's hint here rather than let the server re-mint a
     * default.
     */
    void respond(StatusCode code, std::string_view payload,
                 int64_t retry_after_ns);

    void
    respondOk(std::string_view payload)
    {
        respond(StatusCode::Ok, payload);
    }

  private:
    uint32_t methodId;
    std::string requestBody;
    uint64_t id;
    Clock *timeSource; //!< Never null.
    int64_t arrivalNs;
    int64_t deadlineAtNs;
    Responder responder;
    std::shared_ptr<AdmissionController> admission;
    std::atomic<bool> completed{false};
};

using ServerCallPtr = std::shared_ptr<ServerCall>;
using Handler = std::function<void(ServerCallPtr)>;

class Server
{
  public:
    /** Binds the ambient clock (base/clock.h) at construction. */
    explicit Server(ServerOptions options = {});
    ~Server();

    /**
     * The clock request arrival, residence, and wire-budget pinning
     * read from. A started (networked) server always runs on the real
     * clock; the simulated bindings use an *unstarted* server driven
     * through invokeLocal, constructed under a ScopedClock.
     */
    Clock &clock() const { return *boundClock; }

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Register the handler for a method id. Pre-start only. */
    void registerHandler(uint32_t method, Handler handler);

    /** Bind an ephemeral loopback port and spawn all threads. */
    void start();

    /** Stop threads and close all connections. Idempotent. */
    void stop();

    /** Listening port (valid after start()). */
    uint16_t port() const { return listenPort; }

    uint64_t requestsServed() const
    {
        return served.load(std::memory_order_relaxed);
    }

    /**
     * Deliver an in-process (transport-less) call; used by
     * LocalChannel and SimChannel. It takes the same entry path as a
     * wire request: admission, then the bound. With no
     * bound (an unstarted server on the real clock, or serviceNs == 0
     * on a simulated one) the handler executes on the calling thread;
     * completion may still be asynchronous.
     *
     * On a simulated clock with serviceNs > 0 the bound is the
     * virtual-time station. An arrival that finds workerThreads +
     * queueCapacity requests in the station is shed with a
     * retry-after of the drain time: when the earliest slot frees,
     * plus one service time. Otherwise it claims the earliest-free
     * of workerThreads slots, and the handler runs from a clock
     * timer after the queue wait plus serviceNs.
     */
    void invokeLocal(uint32_t method, std::string body,
                     ServerCall::Responder responder);

    /**
     * Budget-carrying variant (LocalChannel's budget path): the
     * handler's ServerCall reports the remaining deadline, so local
     * mid-tiers propagate budgets exactly like networked ones.
     */
    void invokeLocal(uint32_t method, std::string body,
                     int64_t budget_ns,
                     ServerCall::Responder responder);

  private:
    struct Conn;
    struct PollerShard;

    void pollerMain(size_t index);
    void workerMain(size_t index);
    void acceptPending();
    void handleFrame(Conn *conn, std::string_view frame);
    /**
     * The one path from arrival to handler, shared by handleFrame and
     * invokeLocal: admission, then the bound (the virtual-time
     * station, the task queue, or none), then execute().
     */
    void enter(ServerCallPtr call);
    void execute(const ServerCallPtr &call);
    Handler *findHandler(uint32_t method);
    /** Non-blocking queue handoff; overflow is shed, not blocked on. */
    void dispatchBatch(std::vector<ServerCallPtr> batch);
    /** Shed an admitted call at the bound: RESOURCE_EXHAUSTED. */
    void shedCall(const ServerCallPtr &call, int64_t retry_after_ns = 0);
    /** The virtual-time station in front of execute(). */
    void enterStation(ServerCallPtr call);
    ServerOptions options;
    Clock *boundClock; //!< Never null; see clock().
    std::map<uint32_t, Handler> handlers;

    std::unique_ptr<TcpListener> listener;
    uint16_t listenPort = 0;

    std::vector<std::unique_ptr<PollerShard>> shards;
    BlockingQueue<ServerCallPtr, TracedMutex, TracedCondVar> taskQueue;
    std::vector<ScopedThread> threads;

    std::atomic<bool> running{false};
    std::atomic<bool> stopping{false};
    std::atomic<uint64_t> served{0};
    std::atomic<size_t> nextShard{0};

    Mutex stationMutex{LockRank::station, "rpc.server.station"};
    /** Virtual instant each worker slot next becomes free. */
    std::vector<int64_t> slotFreeAtNs GUARDED_BY(stationMutex);
    /** Requests queued or in service in the station. */
    size_t stationOccupancy GUARDED_BY(stationMutex) = 0;
};

} // namespace rpc
} // namespace musuite

#endif // MUSUITE_RPC_SERVER_H
