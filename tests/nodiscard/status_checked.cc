// The control for status_dropped.cc: every Status and Reply is
// consumed, so this compiles cleanly under -Werror=unused-result.

#include "base/status.h"

namespace musuite {

Status doWork();
Reply fetch();

int
caller()
{
    const Status status = doWork();
    if (!status.isOk())
        return -1;
    (void)doWork(); // Explicitly discarded.
    const Reply reply = fetch();
    return reply.isOk() ? int(reply.payload().size()) : -1;
}

} // namespace musuite
