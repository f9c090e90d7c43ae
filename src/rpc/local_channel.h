/**
 * @file
 * Transport-less channel that invokes a Server's handlers directly on
 * the calling thread. Used by unit tests and by the simkernel
 * calibration pass, which needs pure handler compute times with no
 * network or scheduling in the way.
 *
 * This is the in-process binding of the Clock/transport seam: it works
 * under any Clock (the resilience layer's timers come from the bound
 * clock either way). For a latency-modelling in-process transport on
 * the simulated clock, see simkernel/sim_transport.h.
 */

#ifndef MUSUITE_RPC_LOCAL_CHANNEL_H
#define MUSUITE_RPC_LOCAL_CHANNEL_H

#include "rpc/channel.h"
#include "rpc/server.h"

namespace musuite {
namespace rpc {

class LocalChannel : public Channel
{
  public:
    /** The server must outlive the channel. */
    explicit LocalChannel(Server &server) : server(server) {}

  protected:
    /** The budget is propagated via invokeLocal. */
    void transportCall(uint32_t method, std::string body,
                       int64_t budget_ns, Callback callback) override;

  private:
    Server &server;
};

} // namespace rpc
} // namespace musuite

#endif // MUSUITE_RPC_LOCAL_CHANNEL_H
