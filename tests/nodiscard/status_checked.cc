// The control for status_dropped.cc: every Status and Result is
// consumed, so this compiles cleanly under -Werror=unused-result.

#include "base/status.h"

namespace musuite {

Status doWork();
Result<int> compute();

int
caller()
{
    const Status status = doWork();
    if (!status.isOk())
        return -1;
    (void)doWork(); // Explicitly discarded.
    const Result<int> result = compute();
    return result.isOk() ? result.value() : -1;
}

} // namespace musuite
