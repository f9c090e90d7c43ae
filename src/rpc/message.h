/**
 * @file
 * murpc wire header.
 *
 * Every frame on a murpc connection is one unary RPC message: a fixed
 * 22-byte little-endian header followed by the serialized payload.
 * Requests and responses are multiplexed over one connection per the
 * paper's Router design ("one TCP connection to a given destination
 * per thread; all requests share the same connection"), matched by
 * request id.
 *
 * The header carries the overload-control word `budgetNs`: on a
 * request it is the caller's remaining deadline budget (decremented
 * hop by hop), which lets a server reject work whose budget expired
 * while it sat in the dispatch queue; on a response it is the
 * server-suggested retry-after delay for RESOURCE_EXHAUSTED
 * rejections. Zero means "none" in both directions.
 */

#ifndef MUSUITE_RPC_MESSAGE_H
#define MUSUITE_RPC_MESSAGE_H

#include <cstdint>
#include <string>
#include <string_view>

#include "base/status.h"

namespace musuite {
namespace rpc {

/** Message direction. */
enum class MessageKind : uint8_t {
    Request = 0,
    Response = 1,
};

/** Fixed-size frame header. */
struct MessageHeader
{
    MessageKind kind = MessageKind::Request;
    StatusCode status = StatusCode::Ok; //!< Responses only.
    uint32_t method = 0;
    uint64_t requestId = 0;
    /**
     * Requests: remaining deadline budget in ns (0 = unlimited).
     * Responses: suggested retry-after in ns (0 = no hint); only
     * meaningful alongside a RESOURCE_EXHAUSTED status.
     */
    int64_t budgetNs = 0;

    static constexpr size_t wireSize = 1 + 1 + 4 + 8 + 8;
};

/** Serialize header + payload into one frame payload. */
std::string encodeFrame(const MessageHeader &header,
                        std::string_view payload);

/**
 * Parse a frame payload.
 * @param frame The full frame payload.
 * @param header Out: parsed header.
 * @param payload Out: view into frame past the header.
 * @return false on truncated/garbled frames.
 */
bool decodeFrame(std::string_view frame, MessageHeader &header,
                 std::string_view &payload);

/**
 * The client-side Status for a server's response code, shared by every
 * transport. A RESOURCE_EXHAUSTED shed keeps the server's retry-after
 * hint (the retry layer uses it as a floor under its backoff); every
 * other code drops it.
 */
Status responseStatus(StatusCode code, int64_t retry_after_ns);

} // namespace rpc
} // namespace musuite

#endif // MUSUITE_RPC_MESSAGE_H
