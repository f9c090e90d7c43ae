// Four use-before-check violations: no check at all, a value() where
// isOk() is known false, an access after a reassignment invalidated
// the check, and one after a negated check whose branch falls through.

template <typename T> struct Result
{
    bool isOk() const;
    T value() const;
    T take();
};

Result<int> fetch();

int
useUnchecked()
{
    Result<int> r = fetch();
    return r.value(); // Never checked: finding.
}

int
useWrongBranch()
{
    Result<int> r = fetch();
    if (r.isOk())
        return 1;
    return r.value(); // isOk() is false here: finding.
}

int
useAfterReassign()
{
    Result<int> r = fetch();
    if (!r.isOk())
        return 0;
    r = fetch();      // Reassignment invalidates the check.
    return r.value(); // Unchecked again: finding.
}

int
useAfterFallThrough()
{
    Result<int> r = fetch();
    if (!r.isOk()) {
        log(); // Falls through: the error path reaches value().
    }
    return r.value(); // Not established: finding.
}
