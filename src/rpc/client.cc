/**
 * @file
 * Implementation of the murpc asynchronous client.
 */

#include "rpc/client.h"

#include <algorithm>

#include "base/clock.h"
#include "base/logging.h"
#include "ostrace/syscalls.h"
#include "stats/counters.h"

namespace musuite {
namespace rpc {

/** One connection and its in-flight call table. */
struct RpcClient::ClientConn
{
    Mutex mutex{LockRank::clientConn, "rpc.client.conn"};
    /** Null/dead when down. */
    std::shared_ptr<FramedConnection> fc GUARDED_BY(mutex);
    /** In-flight calls by request id. */
    std::unordered_map<uint64_t, Callback> pending GUARDED_BY(mutex);
    /** Reconnect backoff: no dial before this monotonic instant. */
    int64_t nextDialAllowedNs GUARDED_BY(mutex) = 0;
    /** 0 until the first failed dial. */
    int64_t dialBackoffNs GUARDED_BY(mutex) = 0;
    /** A dial is in flight (ensureConnected runs it unlocked). */
    bool dialing GUARDED_BY(mutex) = false;
    /**
     * True from a successful dial until the connection's first
     * response. A connection that dies in this window proves the
     * server is flapping (accepts, then drops), so the backoff grows
     * instead of resetting; only a real response wipes the slate.
     */
    bool awaitingFirstResponse GUARDED_BY(mutex) = false;
    CompletionShard *shard = nullptr;

    bool
    healthy()
    {
        MutexLock guard(mutex);
        return fc && !fc->isDead();
    }
};

/** Per-completion-thread poller. */
struct RpcClient::CompletionShard
{
    Poller poller;
};

RpcClient::RpcClient(uint16_t port, ClientOptions options_in)
    : options(std::move(options_in)), targetPort(port)
{
    MUSUITE_CHECK(options.connections >= 1) << "need >= 1 connection";
    MUSUITE_CHECK(options.completionThreads >= 1)
        << "need >= 1 completion thread";

    for (int i = 0; i < options.completionThreads; ++i)
        shards.push_back(std::make_unique<CompletionShard>());

    for (int i = 0; i < options.connections; ++i) {
        auto conn = std::make_unique<ClientConn>();
        conn->shard = shards[size_t(i) % shards.size()].get();
        conns.push_back(std::move(conn));
    }
    for (auto &conn : conns)
        ensureConnected(conn.get());

    for (int i = 0; i < options.completionThreads; ++i) {
        countSyscall(Sys::Clone);
        threads.emplace_back(options.name + "-cq" + std::to_string(i),
                             [this, i] { completionMain(size_t(i)); });
    }
}

RpcClient::~RpcClient()
{
    stopping.store(true);
    for (auto &shard : shards)
        shard->poller.wake();
    threads.clear(); // Joins.
    const Status cancelled(StatusCode::Cancelled, "client destroyed");
    for (auto &conn : conns) {
        {
            MutexLock guard(conn->mutex);
            if (conn->fc)
                conn->fc->shutdown();
        }
        failPending(conn.get(), cancelled);
    }
}

bool
RpcClient::ensureConnected(ClientConn *conn)
{
    int64_t now = 0;
    {
        MutexLock guard(conn->mutex);
        if (conn->fc && !conn->fc->isDead())
            return true;
        // Reconnect backoff: while the hold-off runs, fail fast without
        // a dial so a dead server does not eat a connect storm. A dial
        // already in flight on another thread gets the same answer.
        now = clock().nowNanos();
        if (conn->dialing || now < conn->nextDialAllowedNs) {
            globalCounters().counter("rpc.client.dial_suppressed").add();
            return false;
        }
        conn->dialing = true;
    }
    dialAttempts.fetch_add(1, std::memory_order_relaxed);
    globalCounters().counter("rpc.client.dial_attempts").add();
    // connect(2) blocks, so the dial runs without the connection lock.
    TcpSocket sock = TcpSocket::connectLoopback(targetPort);

    MutexLock guard(conn->mutex);
    conn->dialing = false;
    // The backoff grows on a refused dial, and equally when the
    // previous connection died before ever answering (a flapping
    // server accepts and drops; its connect(2) "successes" must not
    // re-enable a full-rate connect storm). It resets only when a
    // connection produces its first response (onConnReadable).
    if (!sock.valid() || conn->awaitingFirstResponse) {
        conn->dialBackoffNs =
            conn->dialBackoffNs == 0
                ? options.reconnectBackoffNs
                : std::min(conn->dialBackoffNs * 2,
                           options.reconnectBackoffMaxNs);
        conn->nextDialAllowedNs = now + conn->dialBackoffNs;
        if (!sock.valid())
            return false;
    }
    conn->awaitingFirstResponse = true;
    conn->fc = std::make_shared<FramedConnection>(std::move(sock),
                                                  &conn->shard->poller,
                                                  conn);
    conn->fc->registerWithPoller();
    conn->shard->poller.wake();
    return true;
}

bool
RpcClient::corkWrites()
{
    // Snapshot the live transports first (conn->mutex), then cork
    // them with no client lock held — frameOut ranks above
    // clientConn, and cork never blocks on the kernel. The snapshot
    // goes on the cork stack so the matching uncork releases exactly
    // one cork per connection corked here, even if a reconnect swaps
    // conn->fc in between.
    std::vector<std::shared_ptr<FramedConnection>> fcs;
    fcs.reserve(conns.size());
    for (auto &conn : conns) {
        MutexLock guard(conn->mutex);
        if (conn->fc && !conn->fc->isDead())
            fcs.push_back(conn->fc);
    }
    for (auto &fc : fcs)
        fc->cork();
    MutexLock guard(corkMutex);
    corkStack.push_back(std::move(fcs));
    return true;
}

void
RpcClient::uncorkWrites()
{
    std::vector<std::shared_ptr<FramedConnection>> fcs;
    {
        MutexLock guard(corkMutex);
        if (corkStack.empty())
            return; // Unmatched uncork: tolerate.
        fcs = std::move(corkStack.back());
        corkStack.pop_back();
    }
    for (auto &fc : fcs)
        fc->uncork();
}

bool
RpcClient::isHealthy() const
{
    for (const auto &conn : conns) {
        if (conn->healthy())
            return true;
    }
    return false;
}

void
RpcClient::transportCall(uint32_t method, std::string body,
                         int64_t budget_ns, Callback callback)
{
    ClientConn *conn =
        conns[nextConn.fetch_add(1, std::memory_order_relaxed) %
              conns.size()].get();

    if (!conn->healthy() && !ensureConnected(conn)) {
        callback(Status(StatusCode::Unavailable, "connect failed"), {});
        return;
    }

    const uint64_t request_id =
        nextRequestId.fetch_add(1, std::memory_order_relaxed);
    MessageHeader header;
    header.kind = MessageKind::Request;
    header.method = method;
    header.requestId = request_id;
    header.budgetNs = budget_ns > 0 ? budget_ns : 0;
    std::string frame = encodeFrame(header, body);

    std::shared_ptr<FramedConnection> fc;
    {
        MutexLock guard(conn->mutex);
        if (!conn->fc || conn->fc->isDead()) {
            fc = nullptr;
        } else {
            fc = conn->fc;
            conn->pending.emplace(request_id, std::move(callback));
        }
    }
    if (!fc) {
        callback(Status(StatusCode::Unavailable, "connection down"), {});
        return;
    }

    if (!fc->sendFrameOwned(std::move(frame))) {
        // Connection died under us: reclaim the callback if the
        // completion thread has not already failed it.
        Callback reclaimed;
        {
            MutexLock guard(conn->mutex);
            auto it = conn->pending.find(request_id);
            if (it != conn->pending.end()) {
                reclaimed = std::move(it->second);
                conn->pending.erase(it);
            }
        }
        if (reclaimed)
            reclaimed(Status(StatusCode::Unavailable, "send failed"), {});
    }
}

void
RpcClient::completionMain(size_t index)
{
    setCurrentThreadRole(ThreadRole::completion);
    CompletionShard &shard = *shards[index];
    const int timeout_ms = options.blockingPoll ? -1 : 0;

    while (!stopping.load(std::memory_order_acquire)) {
        auto events = shard.poller.wait(timeout_ms);
        for (const PollEvent &event : events) {
            if (event.isWakeup)
                continue;
            ClientConn *conn = static_cast<ClientConn *>(event.data);
            if (event.writable) {
                std::shared_ptr<FramedConnection> fc;
                {
                    MutexLock guard(conn->mutex);
                    fc = conn->fc;
                }
                if (fc)
                    fc->onWritable();
            }
            if (event.readable || event.error)
                onConnReadable(conn);
        }
    }
}

void
RpcClient::onConnReadable(ClientConn *conn)
{
    assertOnCompletionThread();
    std::shared_ptr<FramedConnection> fc;
    {
        MutexLock guard(conn->mutex);
        fc = conn->fc;
    }
    if (!fc)
        return;

    const bool alive = fc->onReadable([conn](std::string_view frame) {
        MessageHeader header;
        std::string_view payload;
        if (!decodeFrame(frame, header, payload) ||
            header.kind != MessageKind::Response) {
            MUSUITE_WARN() << "garbled response frame";
            return;
        }
        Callback callback;
        {
            MutexLock guard(conn->mutex);
            // First response on this connection: the server is
            // provably alive and answering, so wipe the reconnect
            // backoff slate (see ensureConnected).
            if (conn->awaitingFirstResponse) {
                conn->awaitingFirstResponse = false;
                conn->dialBackoffNs = 0;
                conn->nextDialAllowedNs = 0;
            }
            auto it = conn->pending.find(header.requestId);
            if (it == conn->pending.end())
                return; // Already failed by a racing disconnect.
            callback = std::move(it->second);
            conn->pending.erase(it);
        }
        // A response's budget slot is the server's retry-after hint.
        callback(responseStatus(header.status, header.budgetNs), payload);
    });

    if (!alive) {
        failPending(conn,
                    Status(StatusCode::Unavailable, "connection lost"));
    }
}

void
RpcClient::failPending(ClientConn *conn, const Status &status)
{
    std::unordered_map<uint64_t, Callback> orphaned;
    {
        MutexLock guard(conn->mutex);
        orphaned.swap(conn->pending);
    }
    for (auto &[id, callback] : orphaned)
        callback(status, {});
}

} // namespace rpc
} // namespace musuite
