// Naked unlocks do not release on the held-lock walk. The unlock on
// the early-return path leaves the lock held on the fall-through, so
// the blocking call there still holds it; an unlock in an unbraced if
// body is no release even in a block ending in `return`; and a
// one-sided unlock leaves the outer lock held at a later acquisition.

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
