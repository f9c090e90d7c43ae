// Must NOT compile under -Werror=unused-result: a dropped Status and
// a dropped Reply. Status and Reply are [[nodiscard]] types
// (base/status.h), so the compiler itself rejects both statements.

#include "base/status.h"

namespace musuite {

Status doWork();
Reply fetch();

void
caller()
{
    doWork(); // Dropped Status.
    fetch();  // Dropped Reply.
}

} // namespace musuite
