// Naked unlocks never release on the held-lock walk: not on the
// fall-through past an early-return unlock, not in an unbraced if body,
// not before a later acquisition (a one-sided unlock leaves the outer
// lock held), and not in the unlock-then-return shape, whose blocking
// call before the return still holds the lock.

Mutex stateMutex{LockRank::state, "state"};
Mutex outerMutex{LockRank::outer, "outer"};
Mutex innerMutex{LockRank::inner, "inner"};
BlockingQueue<int> jobs;

void
popAfterEarlyReturn(bool fast)
{
    MutexLock guard(stateMutex);
    if (fast) {
        guard.unlock();
        return;
    }
    jobs.pop(); // Still held on this path: lock-across-blocking.
}

void
mayHeldInversion(bool fast)
{
    MutexLock outer(outerMutex); // rank 20
    if (fast)
        outer.unlock();          // Not a release on the walk.
    MutexLock inner(innerMutex); // rank 10 under 20: finding.
}

int
popAfterUnbracedUnlock(bool fast)
{
    MutexLock guard(stateMutex);
    if (fast)
        guard.unlock(); // Some paths only: not a release.
    jobs.pop();         // Held on !fast: lock-across-blocking.
    return 0;
}

void
popThenReturn(bool fast)
{
    MutexLock guard(stateMutex);
    if (fast) {
        guard.unlock();
        jobs.pop(); // Still held on the walk: lock-across-blocking.
        return;
    }
}
