/**
 * @file
 * murpc asynchronous client.
 *
 * The client mirrors the µSuite mid-tier's leaf-facing side: calls are
 * fire-and-forget with completion callbacks that run on dedicated
 * response pick-up threads parked in epoll_pwait on the leaf-response
 * sockets. Requests are multiplexed over a small pool of connections
 * by request id (one shared connection per destination, per the
 * paper's Router). Dead connections fail their in-flight calls with
 * UNAVAILABLE and are re-dialed lazily, which is what Router's
 * replication pools route around. Call deadlines live in the Channel
 * layer (rpc::CallOptions), as on every other transport.
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
    int completionThreads = 1; //!< Response pick-up threads.
    bool blockingPoll = true;  //!< false: busy-poll completions.
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

class RpcClient : public Channel
{
  public:
    /** Dial 127.0.0.1:port. Failure leaves the client unhealthy. */
    RpcClient(uint16_t port, ClientOptions options = {});
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
    struct ClientConn;
    struct CompletionShard;

    void completionMain(size_t index);
    void onConnReadable(ClientConn *conn);
    void failPending(ClientConn *conn, const Status &status);
    bool ensureConnected(ClientConn *conn);

    ClientOptions options;
    uint16_t targetPort;

    std::vector<std::unique_ptr<CompletionShard>> shards;
    std::vector<std::unique_ptr<ClientConn>> conns;
    std::vector<ScopedThread> threads;

    /**
     * Connections corked by corkWrites(), a vector per outstanding
     * cork. uncorkWrites() pops one entry and uncorks it; concurrent
     * batches may pop each other's entries, which balances per
     * connection because the stack holds exactly the multiset of
     * corked connections.
     */
    Mutex corkMutex{LockRank::clientConn, "rpc.client.cork"};
    std::vector<std::vector<std::shared_ptr<FramedConnection>>>
        corkStack GUARDED_BY(corkMutex);

    std::atomic<uint64_t> nextRequestId{1};
    std::atomic<size_t> nextConn{0};
    std::atomic<bool> stopping{false};
    std::atomic<uint64_t> dialAttempts{0};
};

} // namespace rpc
} // namespace musuite

#endif // MUSUITE_RPC_CLIENT_H
