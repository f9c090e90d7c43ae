/**
 * @file
 * SimChannel: the real murpc stack on the simulated clock.
 *
 * The channel delivers each attempt to an *unstarted* rpc::Server
 * through invokeLocal() after a configurable one-way link latency, and
 * delivers the response back after another; both hops are SimClock
 * events, so a whole client -> mid-tier -> leaves topology — with real
 * Channel retry/deadline machinery, real PeerHealth /
 * EjectionPolicy state machines, real FaultInjector schedules, and
 * real fan-out merges — executes deterministically in virtual time. This is
 * how the wall-clock resilience tests become exact replays and how the
 * seed-sweep scenarios flush timing races (the FoundationDB-style
 * methodology; see DESIGN.md "Deterministic clock seam").
 *
 * Everything bound to one SimClock must be driven from one thread
 * (simclock.h contract). Servers must be constructed under a
 * ScopedClock so they bind the sim clock — SimChannel checks.
 */

#ifndef MUSUITE_SIMKERNEL_SIM_TRANSPORT_H
#define MUSUITE_SIMKERNEL_SIM_TRANSPORT_H

#include <memory>
#include <string>
#include <vector>

#include "base/rng.h"
#include "rpc/channel.h"
#include "rpc/server.h"
#include "simkernel/simclock.h"

namespace musuite {
namespace sim {

/**
 * One-way latencies of a simulated link (virtual ns).
 *
 * With `seed == 0` both directions are the constant base latencies
 * (the original behavior, byte-compatible with existing replays).
 * A non-zero seed turns the base values into a *distribution*: each
 * message independently adds uniform jitter in [0, jitterNs) and,
 * with probability tailProb, a fixed tail excursion of tailNs — a
 * cheap bimodal shape that models switch-queueing tails well enough
 * for brownout scenarios. Sampling is driven by one per-channel
 * xoshiro stream, so a given (seed, message order) replays
 * byte-identically.
 */
struct SimLink
{
    int64_t requestLatencyNs = 50'000;  //!< Client -> server.
    int64_t responseLatencyNs = 50'000; //!< Server -> client.
    int64_t jitterNs = 0;  //!< Uniform extra per message, both ways.
    double tailProb = 0.0; //!< Chance a message pays the tail.
    int64_t tailNs = 0;    //!< Tail excursion added on a tail hit.
    uint64_t seed = 0;     //!< 0 = constant latencies (no sampling).
};

/**
 * A channel whose transport is invokeLocal() behind SimClock-scheduled
 * link latencies. Wire budgets are relative durations, so the server
 * pins them against the shared sim clock on (virtual) arrival exactly
 * as a networked server pins them against the real clock.
 */
class SimChannel final : public rpc::Channel
{
  public:
    /**
     * The server and clock must outlive the channel; the server must
     * be unstarted and bound to `clock_in` (construct it under
     * ScopedClock). `name_in` labels this link's trace lines.
     */
    SimChannel(SimClock &clock_in, rpc::Server &server_in,
               SimLink link_in = {}, std::string name_in = "sim");

    /**
     * Down links refuse delivery: requests fail UNAVAILABLE after the
     * request latency (the round trip a real RST costs), responses in
     * flight still arrive. Takes effect for attempts sent after the
     * flip — deterministic with respect to virtual time.
     */
    void setDown(bool down_in) { down = down_in; }

    bool isHealthy() const override { return !down; }

  protected:
    void transportCall(uint32_t method, std::string body,
                       int64_t budget_ns, Callback callback) override;

  private:
    /**
     * One call crossing the link: what the request hop carries to the
     * server and what the response hop carries back. Every event of
     * the call captures only (this, hop), which a std::function keeps
     * without allocating. Hops are pooled per channel and recycled,
     * so a steady stream of calls allocates none.
     */
    struct Hop
    {
        uint32_t method = 0;
        std::string body;
        int64_t budgetNs = 0;
        Callback callback;
        StatusCode code = StatusCode::Ok;
        int64_t retryAfterNs = 0;
        std::string payload;
    };

    /** Sample one direction's latency from the link distribution. */
    int64_t sampleLatencyNs(int64_t base_ns);

    /** The request reaches the server end of the link. */
    void deliver(Hop *hop);
    /** The response reaches the client end: finish the call. */
    void receive(Hop *hop);
    /** Return a spent hop to the pool, keeping its buffers. */
    void recycle(Hop *hop);

    SimClock &sim;
    rpc::Server &server;
    SimLink link;
    std::string label;
    Rng latencyRng; //!< Per-channel stream; unused when seed == 0.
    bool down = false;
    std::vector<std::unique_ptr<Hop>> hops; //!< Every hop ever made.
    std::vector<Hop *> idleHops;           //!< Those not in flight.
};

/**
 * Blocking call under a SimClock: issues the call, then pumps the
 * event loop until it completes. (Channel::callSync would deadlock —
 * nothing advances virtual time while the caller blocks.) Returns
 * INTERNAL if the loop goes idle with the call still pending, which
 * in a deterministic world means a real bug: somebody lost a timer or
 * a completion.
 */
Reply simCallSync(SimClock &clock, rpc::Channel &channel, uint32_t method,
                  std::string body, const rpc::CallOptions &options = {});

} // namespace sim
} // namespace musuite

#endif // MUSUITE_SIMKERNEL_SIM_TRANSPORT_H
