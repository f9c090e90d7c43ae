/**
 * @file
 * Implementation of the murpc frame header codec.
 */

#include "rpc/message.h"

#include <cstring>

#include "serde/wire.h"

namespace musuite {
namespace rpc {

std::string
encodeFrame(const MessageHeader &header, std::string_view payload)
{
    // The frame buffer comes from the wire pool; the framed connection
    // recycles it after transmission (sendFrameOwned), so steady-state
    // encoding allocates nothing.
    std::string frame =
        acquireWireBuffer(MessageHeader::wireSize + payload.size());
    frame.push_back(char(uint8_t(header.kind)));
    frame.push_back(char(uint8_t(header.status)));
    char word[8];
    std::memcpy(word, &header.method, 4);
    frame.append(word, 4);
    std::memcpy(word, &header.requestId, 8);
    frame.append(word, 8);
    std::memcpy(word, &header.budgetNs, 8);
    frame.append(word, 8);
    if (!payload.empty())
        frame.append(payload.data(), payload.size());
    return frame;
}

bool
decodeFrame(std::string_view frame, MessageHeader &header,
            std::string_view &payload)
{
    if (frame.size() < MessageHeader::wireSize)
        return false;
    const uint8_t kind = uint8_t(frame[0]);
    const uint8_t status = uint8_t(frame[1]);
    if (kind > uint8_t(MessageKind::Response))
        return false;
    if (status > uint8_t(StatusCode::Unavailable))
        return false;
    header.kind = MessageKind(kind);
    header.status = StatusCode(status);
    std::memcpy(&header.method, frame.data() + 2, 4);
    std::memcpy(&header.requestId, frame.data() + 6, 8);
    std::memcpy(&header.budgetNs, frame.data() + 14, 8);
    if (header.budgetNs < 0)
        header.budgetNs = 0;
    payload = frame.substr(MessageHeader::wireSize);
    return true;
}

Status
responseStatus(StatusCode code, int64_t retry_after_ns)
{
    if (code == StatusCode::Ok)
        return Status::ok();
    Status status(code, "remote error");
    if (code == StatusCode::ResourceExhausted)
        status.setRetryAfterNs(retry_after_ns);
    return status;
}

} // namespace rpc
} // namespace musuite
