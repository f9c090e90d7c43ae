/**
 * @file
 * Implementation of the simulated transport.
 */

#include "simkernel/sim_transport.h"

#include <memory>
#include <utility>

#include "base/logging.h"
#include "rpc/message.h"

namespace musuite {
namespace sim {

SimChannel::SimChannel(SimClock &clock_in, rpc::Server &server_in,
                       SimLink link_in, std::string name_in)
    : sim(clock_in), server(server_in), link(link_in),
      label(std::move(name_in)), latencyRng(link_in.seed)
{
    MUSUITE_CHECK(&server.clock() == &clock_in)
        << "server '" << label
        << "' not bound to this SimClock: construct it under "
           "ScopedClock";
    bindClock(clock_in);
}

int64_t
SimChannel::sampleLatencyNs(int64_t base_ns)
{
    if (link.seed == 0)
        return base_ns; // Constant-latency link (legacy replays).
    int64_t ns = base_ns;
    if (link.jitterNs > 0)
        ns += int64_t(latencyRng.nextBounded(uint64_t(link.jitterNs)));
    if (link.tailProb > 0.0 && link.tailNs > 0 &&
        latencyRng.nextBool(link.tailProb))
        ns += link.tailNs;
    return ns;
}

void
SimChannel::transportCall(uint32_t method, std::string body,
                          int64_t budget_ns, Callback callback)
{
    Hop *hop = nullptr;
    if (idleHops.empty()) {
        hops.push_back(std::make_unique<Hop>());
        hop = hops.back().get();
    } else {
        hop = idleHops.back();
        idleHops.pop_back();
    }
    hop->method = method;
    hop->body = std::move(body);
    hop->budgetNs = budget_ns;
    hop->callback = std::move(callback);
    if (sim.isTracing())
        sim.traceEvent(label + " send m=" + std::to_string(method));
    sim.schedule(sampleLatencyNs(link.requestLatencyNs),
                 [this, hop] { deliver(hop); });
}

void
SimChannel::deliver(Hop *hop)
{
    if (down) {
        if (sim.isTracing())
            sim.traceEvent(label + " refused");
        Callback callback = std::move(hop->callback);
        recycle(hop);
        callback(Status(StatusCode::Unavailable, "sim link down"), {});
        return;
    }
    if (sim.isTracing())
        sim.traceEvent(label + " deliver m=" + std::to_string(hop->method));
    server.invokeLocal(
        hop->method, std::move(hop->body), hop->budgetNs,
        [this, hop](StatusCode code, std::string_view payload,
                    int64_t retry_after_ns) {
            // The handler may respond asynchronously (e.g. from a
            // fan-out merge); whenever it does, the response crosses
            // the link from that instant.
            hop->code = code;
            hop->retryAfterNs = retry_after_ns;
            hop->payload.assign(payload.data(), payload.size());
            sim.schedule(sampleLatencyNs(link.responseLatencyNs),
                         [this, hop] { receive(hop); });
        });
}

void
SimChannel::receive(Hop *hop)
{
    if (sim.isTracing())
        sim.traceEvent(label + " recv code=" +
                       std::to_string(int(hop->code)));
    // The hop goes back to the pool before the callback runs: the
    // callback may issue calls on this channel, or destroy it.
    Callback callback = std::move(hop->callback);
    const std::string payload = std::move(hop->payload);
    const Status status = rpc::responseStatus(hop->code, hop->retryAfterNs);
    recycle(hop);
    callback(status, payload);
}

void
SimChannel::recycle(Hop *hop)
{
    hop->callback = nullptr;
    idleHops.push_back(hop);
}

Reply
simCallSync(SimClock &clock, rpc::Channel &channel, uint32_t method,
            std::string body, const rpc::CallOptions &options)
{
    struct Cell
    {
        bool done = false;
        Status status;
        std::string payload;
    };
    auto cell = std::make_shared<Cell>();
    channel.call(method, std::move(body), options,
                 [cell](const Status &status, std::string_view payload) {
                     cell->status = status;
                     cell->payload.assign(payload.data(),
                                          payload.size());
                     cell->done = true;
                 });
    clock.runUntil([cell] { return cell->done; });
    if (!cell->done) {
        return Status(StatusCode::Internal,
                      "sim went idle before the call completed "
                      "(lost timer or completion)");
    }
    return Reply(std::move(cell->status), std::move(cell->payload));
}

} // namespace sim
} // namespace musuite
