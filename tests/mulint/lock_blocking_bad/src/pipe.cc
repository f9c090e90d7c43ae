// Four lock-across-blocking violations, each under the lock: a direct
// sleep, a callee that transitively blocks, a timer registration, and
// a TCP dial (a blocking connect(2)).

struct Engine
{
    void schedule(void (*cb)(), long delay);
};

void sleepFor(long ns);

Mutex stateMutex{LockRank::state, "state"};
BlockingQueue<int> jobs;

void
drainOne()
{
    jobs.pop();
}

void
sleepUnderLock()
{
    MutexLock guard(stateMutex);
    sleepFor(100); // Finding: direct sleep while holding the lock.
}

void
drainUnderLock()
{
    MutexLock guard(stateMutex);
    drainOne(); // Finding: blocks through drainOne -> jobs.pop.
}

void
armUnderLock(Engine &eng)
{
    MutexLock guard(stateMutex);
    eng.schedule([] {}, 50); // Finding: registration under the lock.
}

void
dialUnderLock()
{
    MutexLock guard(stateMutex);
    TcpSocket sock = TcpSocket::connectLoopback(80); // Finding: a dial.
}
