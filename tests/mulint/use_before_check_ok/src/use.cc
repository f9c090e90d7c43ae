// Checked Result accesses: the isOk() check dominates every value()
// and take() on the paths that reach them.

template <typename T> struct Result
{
    bool isOk() const;
    T value() const;
    T take();
};

Result<int> fetch();

int
useChecked()
{
    Result<int> r = fetch();
    if (!r.isOk())
        return 0;
    return r.value(); // Ok: the early return filtered the bad path.
}

int
useTrueBranch()
{
    Result<int> r = fetch();
    if (r.isOk())
        return r.value(); // Ok: only reached when isOk() held.
    return 0;
}

int
useTernary()
{
    Result<int> r = fetch();
    return r.isOk() ? r.value() : 0; // Ok: guarded within the statement.
}

int
useCheckMacro()
{
    auto r = fetch();
    MUSUITE_CHECK(r.isOk());
    return r.take(); // Ok: the check macro asserts isOk().
}

int
useAfterBracedElse(bool strict)
{
    Result<int> r = fetch();
    if (r.isOk()) {
        strict = false;
    } else {
        return 0; // The error path leaves here.
    }
    return r.value(); // Ok: only the isOk() branch falls through.
}
