/**
 * @file
 * Implementation of the in-process channel.
 */

#include "rpc/local_channel.h"

#include "rpc/message.h"

namespace musuite {
namespace rpc {

void
LocalChannel::transportCall(uint32_t method, std::string body,
                            int64_t budget_ns, Callback callback)
{
    server.invokeLocal(
        method, std::move(body), budget_ns,
        [callback = std::move(callback)](StatusCode code,
                                         std::string_view payload,
                                         int64_t retry_after_ns) {
            callback(responseStatus(code, retry_after_ns), payload);
        });
}

} // namespace rpc
} // namespace musuite
