/**
 * @file
 * Lightweight Status / Reply error-propagation types used across the
 * musuite RPC surface, mirroring gRPC's status-code vocabulary.
 */

#ifndef MUSUITE_BASE_STATUS_H
#define MUSUITE_BASE_STATUS_H

#include <cstdint>
#include <string>
#include <utility>

namespace musuite {

/** Error codes; a deliberately small subset of the gRPC code space. */
enum class StatusCode {
    Ok = 0,
    Cancelled,
    InvalidArgument,
    DeadlineExceeded,
    NotFound,
    AlreadyExists,
    ResourceExhausted,
    FailedPrecondition,
    Unimplemented,
    Internal,
    Unavailable,
};

/** Human-readable name of a status code. */
inline const char *
statusCodeName(StatusCode code)
{
    switch (code) {
      case StatusCode::Ok:                 return "OK";
      case StatusCode::Cancelled:          return "CANCELLED";
      case StatusCode::InvalidArgument:    return "INVALID_ARGUMENT";
      case StatusCode::DeadlineExceeded:   return "DEADLINE_EXCEEDED";
      case StatusCode::NotFound:           return "NOT_FOUND";
      case StatusCode::AlreadyExists:      return "ALREADY_EXISTS";
      case StatusCode::ResourceExhausted:  return "RESOURCE_EXHAUSTED";
      case StatusCode::FailedPrecondition: return "FAILED_PRECONDITION";
      case StatusCode::Unimplemented:      return "UNIMPLEMENTED";
      case StatusCode::Internal:           return "INTERNAL";
      case StatusCode::Unavailable:        return "UNAVAILABLE";
    }
    return "UNKNOWN";
}

/**
 * Outcome of an operation: a code plus an optional message. Statuses are
 * cheap to copy when OK (empty message).
 */
class [[nodiscard]] Status
{
  public:
    Status() : _code(StatusCode::Ok) {}
    Status(StatusCode code, std::string message)
        : _code(code), _message(std::move(message))
    {}

    static Status ok() { return Status(); }

    bool isOk() const { return _code == StatusCode::Ok; }
    StatusCode code() const { return _code; }
    const std::string &message() const { return _message; }

    /**
     * Server-suggested retry-after delay, carried on RESOURCE_EXHAUSTED
     * rejections from an overloaded server (0 = no hint). The retry
     * layer uses it as a floor under its computed backoff so a shedding
     * server controls the pace of the retries it will see.
     */
    int64_t retryAfterNs() const { return _retryAfterNs; }
    void setRetryAfterNs(int64_t ns) { _retryAfterNs = ns < 0 ? 0 : ns; }

    /** Render as "CODE: message" for logs. */
    std::string
    toString() const
    {
        if (isOk())
            return "OK";
        return std::string(statusCodeName(_code)) + ": " + _message;
    }

    bool
    operator==(const Status &other) const
    {
        return _code == other._code;
    }

  private:
    StatusCode _code;
    std::string _message;
    int64_t _retryAfterNs = 0;
};

/**
 * What a unary call completes with, in the shape every asynchronous
 * completion callback already receives: the Status and the response
 * payload. The payload is empty unless the call succeeded, so reading
 * it can never abort; a caller that needs the difference between an
 * empty reply and a failed call asks isOk().
 */
class [[nodiscard]] Reply
{
  public:
    Reply(Status status, std::string payload = {})
        : _status(std::move(status))
    {
        if (_status.isOk())
            _payload = std::move(payload);
    }

    bool isOk() const { return _status.isOk(); }
    const Status &status() const { return _status; }

    /** The response body; empty unless isOk(). */
    const std::string &payload() const { return _payload; }

  private:
    Status _status;
    std::string _payload;
};

} // namespace musuite

#endif // MUSUITE_BASE_STATUS_H
