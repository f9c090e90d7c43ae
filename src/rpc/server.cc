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
 *  event hand their calls to `server`'s worker queue in one pushAll. */
struct DispatchBatch
{
    Server *server;
    std::vector<ServerCallPtr> calls;
};

thread_local DispatchBatch *pendingDispatch = nullptr;

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
    // Close the admission loop with the residence sample: queueing
    // shows up here, which is what an adaptive limiter must see to
    // shrink its window.
    if (admission)
        admission->onAdmittedComplete(residence_ns);
    if (code == StatusCode::ResourceExhausted && retry_after_ns <= 0)
        retry_after_ns = kDefaultRetryAfterNs;
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
    std::vector<PollEvent> events;

    while (!stopping.load(std::memory_order_acquire)) {
        int timeout_ms = static_timeout_ms;
        if (options.adaptiveIdleStreak > 0) {
            // Adaptive policy (§VII): spin while traffic is flowing,
            // park once the socket has stayed quiet for a while.
            timeout_ms =
                empty_streak >= options.adaptiveIdleStreak ? -1 : 0;
        }
        shard.poller.wait(timeout_ms, events);
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
                DispatchBatch dispatch{this, {}};
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
                if (!dispatch.calls.empty())
                    dispatchBatch(std::move(dispatch.calls));
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
    auto responder = [wfc, request_id, method](StatusCode code,
                                               std::string_view body,
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
        if (code == StatusCode::ResourceExhausted)
            response_header.budgetNs = retry_after_ns;
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

    // The wire budget is relative (clock domains differ across
    // hosts); pin it to this host's monotonic clock on arrival.
    const int64_t deadline_at =
        header.budgetNs > 0 ? boundClock->nowNanos() + header.budgetNs
                            : 0;

    std::string body = acquireWireBuffer(payload.size());
    if (!payload.empty())
        body.assign(payload.data(), payload.size());
    enter(std::make_shared<ServerCall>(method, std::move(body),
                                       request_id, std::move(responder),
                                       deadline_at, boundClock));
}

void
Server::enter(ServerCallPtr call)
{
    // Tier 1: admission. A reject is answered through the call's own
    // responder, like every other shed.
    if (options.admission) {
        if (!options.admission->admit()) {
            static Counter &admission_rejected =
                globalCounters().counter("overload.admission_rejected");
            admission_rejected.add();
            call->respond(StatusCode::ResourceExhausted, "",
                          options.admission->retryAfterHintNs());
            return;
        }
        call->setAdmission(options.admission);
    }

    // Tier 2: the bound. Worker threads run in real time, so on a
    // simulated clock the station is the only one.
    const bool simulated = boundClock->isSimulated();
    if (simulated && options.serviceNs > 0) {
        enterStation(std::move(call));
    } else if (!simulated && options.dispatchToWorkers && running.load()) {
        // The poller hands off to the worker pool; the queue's traced
        // condvar makes the wakeup visible to ostrace. Frames from one
        // readable event batch into a single push, and a full queue
        // sheds instead of blocking the poller.
        if (pendingDispatch && pendingDispatch->server == this) {
            std::vector<ServerCallPtr> &calls = pendingDispatch->calls;
            calls.push_back(std::move(call));
            if (calls.size() >= maxDispatchBatch) {
                std::vector<ServerCallPtr> flush_now;
                flush_now.swap(calls);
                dispatchBatch(std::move(flush_now));
            }
        } else {
            dispatchBatch({std::move(call)});
        }
    } else {
        execute(call);
    }
}

void
Server::dispatchBatch(std::vector<ServerCallPtr> batch)
{
    for (const ServerCallPtr &call : taskQueue.tryPushAll(std::move(batch)))
        shedCall(call);
}

void
Server::shedCall(const ServerCallPtr &call, int64_t retry_after_ns)
{
    static Counter &queue_rejected =
        globalCounters().counter("overload.queue_rejected");
    queue_rejected.add();
    // No latency sample for the limiter: the request never ran, and a
    // near-zero "residence" would teach an adaptive policy that the
    // server is fast precisely while it is drowning.
    call->admissionDropped();
    call->respond(StatusCode::ResourceExhausted, "", retry_after_ns);
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
    enter(std::make_shared<ServerCall>(method, std::move(body),
                                       local_ids.fetch_add(1),
                                       std::move(responder), deadline_at,
                                       boundClock));
}

void
Server::enterStation(ServerCallPtr call)
{
    // The hint is the real drain time, so upstream backoff is paced by
    // actual load.
    const int64_t now_ns = boundClock->nowNanos();
    auto slot = std::min_element(slotFreeAtNs.begin(), slotFreeAtNs.end());
    if (station.size() - stationHead >=
        size_t(options.workerThreads) + options.queueCapacity) {
        shedCall(call, std::max<int64_t>(*slot - now_ns, 0) +
                           options.serviceNs);
        return;
    }
    // An arrival takes the earliest-free slot and frees it later than
    // any slot was free before, so handler instants never decrease and
    // (equal instants firing in arm order) the handlers run in arrival
    // order. The timer therefore only names the call at the head of
    // the station; the station owns it.
    *slot = std::max(now_ns, *slot) + options.serviceNs;
    const ServerCall *arrival = call.get();
    station.push_back(std::move(call));
    boundClock->schedule(*slot - now_ns, [this, arrival] {
        ServerCallPtr next = std::move(station[stationHead++]);
        MUSUITE_CHECK(next.get() == arrival)
            << "station handlers ran out of arrival order";
        // Drop the spent prefix once it is at least half the vector:
        // amortized O(1) per call, and at most twice the occupancy.
        if (2 * stationHead >= station.size()) {
            station.erase(station.begin(),
                          station.begin() + std::ptrdiff_t(stationHead));
            stationHead = 0;
        }
        execute(next);
    });
}

} // namespace rpc
} // namespace musuite
