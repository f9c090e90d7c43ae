// Must NOT compile under -Werror=unused-result: a dropped Status and
// a dropped Result<T>. Status and Result are [[nodiscard]] types
// (base/status.h), so the compiler itself rejects both statements.

#include "base/status.h"

namespace musuite {

Status doWork();
Result<int> compute();

void
caller()
{
    doWork();  // Dropped Status.
    compute(); // Dropped Result.
}

} // namespace musuite
