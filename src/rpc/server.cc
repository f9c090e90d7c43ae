/**
 * @file
 * Implementation of the murpc server.
 */

#include "rpc/server.h"

#include <algorithm>
#include <climits>
#include <unordered_map>
#include <vector>

#include "base/clock.h"
#include "base/logging.h"
#include "ostrace/ostrace.h"
#include "ostrace/syscalls.h"
#include "serde/wire.h"
#include "stats/counters.h"

namespace musuite {
namespace rpc {

namespace {

/**
 * Write-combining context for response frames. While a drain loop
 * (worker batch or inline poller event) is executing handlers, the
 * thread's active batch collects every response frame produced
 * synchronously; the drain flushes them afterwards grouped by
 * connection — one cork/uncork (ideally one sendmsg) per connection
 * per drain instead of one per response. Responses completed later
 * from other threads (async handlers) miss the batch and flush
 * directly, exactly as before.
 */
struct ResponseBatch
{
    struct Entry
    {
        std::shared_ptr<FramedConnection> fc;
        std::string frame;
    };
    std::vector<Entry> entries;
};

thread_local ResponseBatch *activeResponseBatch = nullptr;

/** Poller-thread dispatch batch: frames parsed from one readable
 *  event hand their calls to the worker queue in one pushAll. */
thread_local std::vector<ServerCallPtr> *pendingDispatch = nullptr;

/** Cap on frames a dispatch batch defers before flushing early, so a
 *  huge burst still reaches idle workers while the poller parses. */
constexpr size_t maxDispatchBatch = 64;

/** Cap on tasks a worker drains per round: bounds how long the first
 *  response of a batch waits behind the handlers after it. */
constexpr size_t maxWorkerDrain = 32;

void
flushResponseBatch(ResponseBatch &batch)
{
    // Group by connection (batches are small; quadratic scan beats a
    // map here): cork once, queue every frame, flush in one uncork.
    for (size_t i = 0; i < batch.entries.size(); ++i) {
        auto fc = std::move(batch.entries[i].fc);
        if (!fc)
            continue;
        fc->cork();
        fc->sendFrameOwned(std::move(batch.entries[i].frame));
        for (size_t j = i + 1; j < batch.entries.size(); ++j) {
            if (batch.entries[j].fc == fc) {
                fc->sendFrameOwned(std::move(batch.entries[j].frame));
                batch.entries[j].fc = nullptr;
            }
        }
        fc->uncork();
    }
    batch.entries.clear();
}

} // namespace

ServerCall::ServerCall(uint32_t method, std::string body,
                       uint64_t request_id, Responder responder,
                       int64_t deadline_at_ns, Clock *clock)
    : methodId(method), requestBody(std::move(body)), id(request_id),
      timeSource(clock ? clock : &currentClock()),
      arrivalNs(timeSource->nowNanos()), deadlineAtNs(deadline_at_ns),
      responder(std::move(responder))
{}

ServerCall::~ServerCall()
{
    releaseWireBuffer(std::move(requestBody));
}

void
ServerCall::respond(StatusCode code, std::string_view payload)
{
    respond(code, payload, 0);
}

void
ServerCall::respond(StatusCode code, std::string_view payload,
                    int64_t retry_after_ns)
{
    bool expected = false;
    if (!completed.compare_exchange_strong(expected, true)) {
        MUSUITE_WARN() << "duplicate respond() for request " << id;
        return;
    }
    // Net mid-tier latency: full server residence of this request.
    const int64_t residence_ns = timeSource->nowNanos() - arrivalNs;
    recordOs(OsCategory::Net, residence_ns);
    // Close the admission loop with the residence sample — including
    // in-queue-expired requests, whose large samples are exactly what
    // an adaptive limiter must see to shrink its window.
    if (admission)
        admission->onAdmittedComplete(residence_ns);
    responder(code, payload, retry_after_ns);
}

int64_t
ServerCall::remainingBudgetNs() const
{
    if (deadlineAtNs == 0)
        return 0;
    const int64_t remaining = deadlineAtNs - timeSource->nowNanos();
    return remaining > 0 ? remaining : 1;
}

/** One accepted connection plus its routing back-pointers. */
struct Server::Conn
{
    std::shared_ptr<FramedConnection> fc;
    Server *server = nullptr;
    PollerShard *shard = nullptr;
};

/** Per-poller-thread state. */
struct Server::PollerShard
{
    Poller poller;
    Mutex connMutex{LockRank::serverConns, "rpc.server.conns"};
    std::unordered_map<Conn *, std::unique_ptr<Conn>> conns
        GUARDED_BY(connMutex);
    /** Distinct cookie marking listener readiness (shard 0 only). */
    char listenerTag = 0;

    void
    adopt(std::unique_ptr<Conn> conn)
    {
        Conn *key = conn.get();
        MutexLock guard(connMutex);
        conns[key] = std::move(conn);
    }

    void
    drop(Conn *conn)
    {
        conn->fc->shutdown();
        MutexLock guard(connMutex);
        conns.erase(conn);
    }

    void
    clear()
    {
        MutexLock guard(connMutex);
        for (auto &[key, conn] : conns)
            conn->fc->shutdown();
        conns.clear();
    }
};

Server::Server(ServerOptions options_in)
    : options(std::move(options_in)), boundClock(&currentClock()),
      taskQueue(options.queueCapacity),
      slotFreeAtNs(size_t(std::max(options.workerThreads, 1)), 0)
{
    MUSUITE_CHECK(options.pollerThreads >= 1) << "need >= 1 poller";
    MUSUITE_CHECK(!options.dispatchToWorkers || options.workerThreads >= 1)
        << "dispatch mode needs >= 1 worker";
    MUSUITE_CHECK(options.serviceNs >= 0) << "negative service time";
}

Server::~Server()
{
    stop();
}

void
Server::registerHandler(uint32_t method, Handler handler)
{
    MUSUITE_CHECK(!running.load()) << "register before start()";
    handlers[method] = std::move(handler);
}

Handler *
Server::findHandler(uint32_t method)
{
    auto it = handlers.find(method);
    return it == handlers.end() ? nullptr : &it->second;
}

void
Server::start()
{
    MUSUITE_CHECK(!running.exchange(true)) << "double start()";
    stopping.store(false);

    listener = std::make_unique<TcpListener>();
    listenPort = listener->port();

    shards.clear();
    for (int i = 0; i < options.pollerThreads; ++i)
        shards.push_back(std::make_unique<PollerShard>());
    shards[0]->poller.add(listener->fd(), &shards[0]->listenerTag, false);

    for (int i = 0; i < options.pollerThreads; ++i) {
        countSyscall(Sys::Clone);
        threads.emplace_back(options.name + "-net" + std::to_string(i),
                             [this, i] { pollerMain(size_t(i)); });
    }
    if (options.dispatchToWorkers) {
        for (int i = 0; i < options.workerThreads; ++i) {
            countSyscall(Sys::Clone);
            threads.emplace_back(options.name + "-wrk" + std::to_string(i),
                                 [this, i] { workerMain(size_t(i)); });
        }
    }
}

void
Server::stop()
{
    if (!running.load() || stopping.exchange(true))
        return;
    taskQueue.close();
    for (auto &shard : shards)
        shard->poller.wake();
    threads.clear(); // Joins everything.
    for (auto &shard : shards)
        shard->clear();
    shards.clear();
    listener.reset();
    running.store(false);
}

void
Server::acceptPending()
{
    assertOnPollerThread();
    while (true) {
        TcpSocket sock = listener->accept();
        if (!sock.valid())
            return;
        PollerShard *shard =
            shards[nextShard.fetch_add(1) % shards.size()].get();
        auto conn = std::make_unique<Conn>();
        conn->server = this;
        conn->shard = shard;
        conn->fc = std::make_shared<FramedConnection>(std::move(sock),
                                                      &shard->poller,
                                                      conn.get());
        Conn *key = conn.get();
        shard->adopt(std::move(conn));
        key->fc->registerWithPoller();
    }
}

void
Server::pollerMain(size_t index)
{
    setCurrentThreadRole(ThreadRole::poller);
    PollerShard &shard = *shards[index];
    const int static_timeout_ms = options.blockingPoll ? -1 : 0;
    int empty_streak = 0;

    while (!stopping.load(std::memory_order_acquire)) {
        int timeout_ms = static_timeout_ms;
        if (options.adaptiveIdleStreak > 0) {
            // Adaptive policy (§VII): spin while traffic is flowing,
            // park once the socket has stayed quiet for a while.
            timeout_ms =
                empty_streak >= options.adaptiveIdleStreak ? -1 : 0;
        }
        auto events = shard.poller.wait(timeout_ms);
        if (events.empty()) {
            if (empty_streak < INT_MAX)
                ++empty_streak;
        } else {
            empty_streak = 0;
        }
        for (const PollEvent &event : events) {
            if (event.isWakeup)
                continue;
            if (event.data == &shard.listenerTag) {
                acceptPending();
                continue;
            }
            Conn *conn = static_cast<Conn *>(event.data);
            if (event.error) {
                shard.drop(conn);
                continue;
            }
            if (event.writable)
                conn->fc->onWritable();
            if (event.readable) {
                // Batch contexts for this event: frames parsed in one
                // onReadable hand off to the workers in one pushAll
                // (one futex round), and inline-mode responses for
                // this connection coalesce into one flush.
                ResponseBatch responses;
                std::vector<ServerCallPtr> dispatch;
                activeResponseBatch = &responses;
                pendingDispatch = &dispatch;
                const bool alive = conn->fc->onReadable(
                    [this, conn](std::string_view frame) {
                        handleFrame(conn, frame);
                    });
                pendingDispatch = nullptr;
                // Dispatch before dropping the response batch: any
                // queue-overflow rejections it produces coalesce into
                // this event's flush.
                if (!dispatch.empty())
                    dispatchBatch(std::move(dispatch));
                activeResponseBatch = nullptr;
                flushResponseBatch(responses);
                if (!alive)
                    shard.drop(conn);
            }
        }
    }
}

void
Server::workerMain(size_t)
{
    setCurrentThreadRole(ThreadRole::worker);
    while (true) {
        auto tasks = taskQueue.popMany(maxWorkerDrain);
        if (tasks.empty())
            return; // Queue closed and drained.
        ResponseBatch responses;
        activeResponseBatch = &responses;
        for (auto &task : tasks) {
            assertOnWorkerThread();
            if (!refuseIfExpired(task))
                execute(task);
        }
        activeResponseBatch = nullptr;
        flushResponseBatch(responses);
    }
}

void
Server::handleFrame(Conn *conn, std::string_view frame)
{
    assertOnPollerThread();
    MessageHeader header;
    std::string_view payload;
    if (!decodeFrame(frame, header, payload) ||
        header.kind != MessageKind::Request) {
        MUSUITE_WARN() << "garbled request frame (" << frame.size()
                       << " bytes)";
        return;
    }

    std::weak_ptr<FramedConnection> wfc = conn->fc;
    const uint64_t request_id = header.requestId;
    const uint32_t method = header.method;
    const int64_t default_retry_after = options.rejectRetryAfterNs;
    auto responder = [wfc, request_id, method, default_retry_after](
                         StatusCode code, std::string_view body,
                         int64_t retry_after_ns) {
        auto fc = wfc.lock();
        if (!fc || fc->isDead())
            return; // Client went away; response is moot.
        MessageHeader response_header;
        response_header.kind = MessageKind::Response;
        response_header.status = code;
        response_header.method = method;
        response_header.requestId = request_id;
        // A shed response tells the client when retrying might work.
        // Prefer the handler's hint (a downstream shedder's pacing)
        // over this server's local default.
        if (code == StatusCode::ResourceExhausted)
            response_header.budgetNs = retry_after_ns > 0
                                           ? retry_after_ns
                                           : default_retry_after;
        std::string frame = encodeFrame(response_header, body);
        // Inside a drain loop, defer to the thread's batch so all
        // responses sharing a connection leave in one flush; async
        // completions (no batch on their thread) flush directly.
        if (ResponseBatch *batch = activeResponseBatch) {
            batch->entries.push_back(
                {std::move(fc), std::move(frame)});
            return;
        }
        fc->sendFrameOwned(std::move(frame));
    };

    // Tier 1: admission, decided before the body is even copied. The
    // rejection frame is produced right here on the poller thread —
    // an overloaded worker pool never sees the request at all.
    if (options.admission && !options.admission->admit()) {
        globalCounters().counter("overload.admission_rejected").add();
        int64_t hint = options.admission->retryAfterHintNs();
        if (hint == 0)
            hint = default_retry_after;
        MessageHeader reject;
        reject.kind = MessageKind::Response;
        reject.status = StatusCode::ResourceExhausted;
        reject.method = method;
        reject.requestId = request_id;
        reject.budgetNs = hint;
        std::string frame = encodeFrame(reject, "");
        if (ResponseBatch *batch = activeResponseBatch)
            batch->entries.push_back({conn->fc, std::move(frame)});
        else
            conn->fc->sendFrameOwned(std::move(frame));
        return;
    }

    // The wire budget is relative (clock domains differ across
    // hosts); pin it to this host's monotonic clock on arrival.
    const int64_t deadline_at =
        header.budgetNs > 0 ? boundClock->nowNanos() + header.budgetNs
                            : 0;

    std::string body = acquireWireBuffer(payload.size());
    if (!payload.empty())
        body.assign(payload.data(), payload.size());
    auto call = std::make_shared<ServerCall>(method, std::move(body),
                                             request_id,
                                             std::move(responder),
                                             deadline_at, boundClock);
    call->setAdmission(options.admission);

    if (options.dispatchToWorkers) {
        // Network thread hands off to the worker pool; the queue's
        // traced condvar makes the wakeup visible to ostrace. Frames
        // from one readable event batch into a single push, and a
        // full queue sheds (tier 2) instead of blocking the poller.
        if (pendingDispatch) {
            pendingDispatch->push_back(std::move(call));
            if (pendingDispatch->size() >= maxDispatchBatch) {
                std::vector<ServerCallPtr> flush_now;
                flush_now.swap(*pendingDispatch);
                dispatchBatch(std::move(flush_now));
            }
        } else {
            ServerCallPtr keep = call;
            if (!taskQueue.tryPush(std::move(call))) {
                globalCounters()
                    .counter("overload.queue_rejected")
                    .add();
                shedCall(keep);
            }
        }
    } else if (!refuseIfExpired(call)) {
        execute(call);
    }
}

void
Server::dispatchBatch(std::vector<ServerCallPtr> batch)
{
    std::vector<ServerCallPtr> rejected =
        taskQueue.tryPushAll(std::move(batch));
    if (rejected.empty())
        return;
    globalCounters()
        .counter("overload.queue_rejected")
        .add(rejected.size());
    for (const ServerCallPtr &call : rejected)
        shedCall(call);
}

void
Server::shedCall(const ServerCallPtr &call)
{
    // No latency sample for the limiter: the request never ran, and a
    // near-zero "residence" would teach an adaptive policy that the
    // server is fast precisely while it is drowning.
    call->admissionDropped();
    call->respond(StatusCode::ResourceExhausted, "");
}

bool
Server::refuseIfExpired(const ServerCallPtr &call)
{
    // A request that outlived its budget is dead weight: the client
    // has already given up, so running the handler would burn time to
    // produce a response nobody reads.
    if (!options.enforceQueueDeadline || !call->budgetSpent())
        return false;
    globalCounters().counter("overload.expired_in_queue").add();
    call->respond(StatusCode::DeadlineExceeded, "");
    return true;
}

void
Server::execute(const ServerCallPtr &call)
{
    served.fetch_add(1, std::memory_order_relaxed);
    Handler *handler = findHandler(call->method());
    if (!handler) {
        call->respond(StatusCode::Unimplemented, "");
        return;
    }
    (*handler)(call);
}

void
Server::invokeLocal(uint32_t method, std::string body,
                    ServerCall::Responder responder)
{
    invokeLocal(method, std::move(body), 0, std::move(responder));
}

void
Server::invokeLocal(uint32_t method, std::string body,
                    int64_t budget_ns,
                    ServerCall::Responder responder)
{
    static std::atomic<uint64_t> local_ids{1};
    const int64_t deadline_at =
        budget_ns > 0 ? boundClock->nowNanos() + budget_ns : 0;
    auto call = std::make_shared<ServerCall>(method, std::move(body),
                                             local_ids.fetch_add(1),
                                             std::move(responder),
                                             deadline_at, boundClock);
    if (options.serviceNs > 0 && boundClock->isSimulated())
        enterStation(std::move(call));
    else
        execute(call);
}

void
Server::enterStation(ServerCallPtr call)
{
    // Tier 3 on arrival.
    if (refuseIfExpired(call))
        return;

    // Tier 2. The hint is the real drain time, so upstream backoff is
    // paced by actual load.
    const int64_t now_ns = boundClock->nowNanos();
    bool shed = false;
    int64_t delay_ns = 0;
    int64_t retry_after_ns = 0;
    {
        MutexLock guard(stationMutex);
        auto slot = std::min_element(slotFreeAtNs.begin(),
                                     slotFreeAtNs.end());
        if (stationOccupancy >=
            size_t(options.workerThreads) + options.queueCapacity) {
            shed = true;
            retry_after_ns =
                std::max<int64_t>(*slot - now_ns, 0) + options.serviceNs;
        } else {
            *slot = std::max(now_ns, *slot) + options.serviceNs;
            delay_ns = *slot - now_ns;
            ++stationOccupancy;
        }
    }
    if (shed) {
        globalCounters().counter("overload.queue_rejected").add();
        call->respond(StatusCode::ResourceExhausted, "", retry_after_ns);
        return;
    }

    boundClock->schedule(delay_ns, [this, call = std::move(call)] {
        {
            MutexLock guard(stationMutex);
            --stationOccupancy;
        }
        execute(call);
    });
}

} // namespace rpc
} // namespace musuite
