/**
 * @file
 * murpc asynchronous client.
 *
 * The client mirrors the µSuite mid-tier's leaf-facing side: calls are
 * fire-and-forget with completion callbacks that run on response
 * pick-up threads parked in epoll_pwait on the leaf-response sockets.
 * Those threads belong to a CompletionPool, and every leaf client of a
 * mid-tier shares one pool, as in the paper's Fig. 8 (one pool of
 * response threads per mid-tier, the pool the simulator models as
 * SimMachine::responseThreads): a replicated Router set wakes one
 * pick-up thread for its three answers, not one thread per leaf. A
 * client built without a pool gets a private one. Requests are
 * multiplexed over a small pool of connections by request id (one
 * shared connection per destination, per the paper's Router). Dead
 * connections fail their in-flight calls with UNAVAILABLE and are
 * re-dialed lazily, which is what Router's replication pools route
 * around. Call deadlines live in the Channel layer (rpc::CallOptions),
 * as on every other transport.
 */

#ifndef MUSUITE_RPC_CLIENT_H
#define MUSUITE_RPC_CLIENT_H

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/threading.h"
#include "net/frame.h"
#include "net/poller.h"
#include "rpc/channel.h"
#include "rpc/message.h"

namespace musuite {
namespace rpc {

struct ClientOptions
{
    int connections = 1;       //!< TCP connections to the target.
    /** Threads of the private CompletionPool a client builds when it
     *  is given none. */
    int completionThreads = 1;
    std::string name = "cli";
    /**
     * Reconnect backoff after a failed dial: the first failure holds
     * further dial attempts on that connection for
     * reconnectBackoffNs, doubling per consecutive failure up to
     * reconnectBackoffMaxNs. A server that merely *accepts* does not
     * clear the slate — a flapping leaf accepts and dies instantly,
     * and resetting on connect(2) success would re-enable a full-rate
     * connect storm. The backoff resets only once the new connection
     * delivers its first response. Calls during the hold-off fail
     * fast with UNAVAILABLE without touching the network, and so do
     * calls that find another caller's dial still in flight.
     */
    int64_t reconnectBackoffNs = 1'000'000;        //!< 1 ms.
    int64_t reconnectBackoffMaxNs = 1'000'000'000; //!< 1 s.
};

/**
 * Response pick-up threads shared by RpcClients: each thread parks in
 * epoll_pwait on its own Poller, and together they read the responses
 * of every connection of every client attached to the pool. A
 * connection's poll cookie is its client-side connection record, which
 * points back to its client. Clients hold the pool by shared_ptr, so
 * the pool outlives every client attached to it; its threads stop when
 * the last holder lets go.
 */
class CompletionPool
{
  public:
    /** Start `threads` pick-up threads named `<name>-cq<i>`. */
    CompletionPool(int threads, const std::string &name);
    ~CompletionPool();

    CompletionPool(const CompletionPool &) = delete;
    CompletionPool &operator=(const CompletionPool &) = delete;

  private:
    friend class RpcClient;
    struct Shard;

    /** The poller a new connection registers with (round robin). */
    Poller &nextPoller();

    /**
     * Return once every pool thread has finished the batch of events
     * it was handling at the call. A connection removed from its
     * epoll set before the call then has no event left in any
     * thread's hands. Must not run on a pool thread.
     */
    void quiesce();

    void threadMain(size_t index);

    std::vector<std::unique_ptr<Shard>> shards;
    std::atomic<size_t> nextShard{0};
    std::atomic<bool> stopping{false};
    std::vector<ScopedThread> threads; //!< Last: they use the above.
};

class RpcClient : public Channel
{
  public:
    /**
     * Dial 127.0.0.1:port, picking up responses on a private pool of
     * options.completionThreads threads. Failure leaves the client
     * unhealthy.
     */
    RpcClient(uint16_t port, ClientOptions options = {});

    /**
     * Dial 127.0.0.1:port, picking up responses on `pool`, which other
     * clients may share (options.completionThreads is unused).
     */
    RpcClient(uint16_t port, std::shared_ptr<CompletionPool> pool,
              ClientOptions options = {});

    /**
     * Tear down in three steps: shut every connection down (which
     * removes it from its pool poller's epoll set), wait until each
     * pool thread has finished the batch of events it was handling,
     * then fail each pending call with CANCELLED, exactly once. Other
     * clients on the same pool are untouched. Must not run on a
     * thread of this client's pool.
     */
    ~RpcClient() override;

    /** True if at least one connection is up. */
    bool isHealthy() const override;

    /** TCP dial attempts made so far (reconnect-storm regression). */
    uint64_t
    connectAttempts() const
    {
        return dialAttempts.load(std::memory_order_relaxed);
    }

    /**
     * Write-combining over every live connection: requests issued
     * between cork and uncork flush together at uncork, one
     * scatter-gather sendmsg per connection (see Channel).
     */
    bool corkWrites() override;
    void uncorkWrites() override;

  protected:
    /** The deadline budget rides the wire header. */
    void transportCall(uint32_t method, std::string body,
                       int64_t budget_ns, Callback callback) override;

  private:
    friend class CompletionPool;
    struct ClientConn;

    /** Handle one poll event of `conn`; runs on a pool thread. */
    static void onConnEvent(ClientConn *conn, const PollEvent &event);
    void onConnReadable(ClientConn *conn);
    void failPending(ClientConn *conn, const Status &status);
    /**
     * Fail the pending calls of `fc`, a connection that died, unless a
     * reconnect already replaced it (and failed them). A dead
     * connection leaves its poller's epoll set, so whoever sees it die
     * (pick-up thread or sender) must fail its calls, or they wait
     * forever.
     */
    void failPendingOf(ClientConn *conn, const FramedConnection *fc,
                       const Status &status);
    bool ensureConnected(ClientConn *conn);

    ClientOptions options;
    uint16_t targetPort;

    /** Declared before `conns`, so it outlives them. */
    std::shared_ptr<CompletionPool> pool;
    std::vector<std::unique_ptr<ClientConn>> conns;

    /** One connection corked by corkWrites(). */
    struct Corked
    {
        ClientConn *conn;
        std::shared_ptr<FramedConnection> fc;
    };

    /**
     * Connections corked by corkWrites(), a vector per outstanding
     * cork. uncorkWrites() pops one entry and uncorks it; concurrent
     * batches may pop each other's entries, which balances per
     * connection because the stack holds exactly the multiset of
     * corked connections.
     */
    Mutex corkMutex{LockRank::clientConn, "rpc.client.cork"};
    std::vector<std::vector<Corked>> corkStack GUARDED_BY(corkMutex);

    std::atomic<uint64_t> nextRequestId{1};
    std::atomic<size_t> nextConn{0};
    /** Set first in the destructor: a connection that dies from here
     *  on leaves its pending calls to be CANCELLED by the teardown. */
    std::atomic<bool> closing{false};
    std::atomic<uint64_t> dialAttempts{0};
};

} // namespace rpc
} // namespace musuite

#endif // MUSUITE_RPC_CLIENT_H
