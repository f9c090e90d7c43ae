// Four dangling-capture violations: a by-ref lambda handed to a
// deferred schedule() with no drain before the scope dies, two whose
// drain happens on only one path (an unbraced and a braced if), and
// one registered inside a lambda whose enclosing function drains only
// after the lambda's locals are gone.

struct Clock
{
    template <typename F> void schedule(long delayNs, F fn);
    void runUntilIdle();
};

void
armTimer(Clock &clock)
{
    int hits = 0;
    clock.schedule(10, [&hits] { ++hits; }); // Escapes scope: finding.
}

void
armHalfDrained(Clock &clock, bool flush)
{
    int hits = 0;
    clock.schedule(10, [&] { ++hits; }); // Undrained when !flush: finding.
    if (flush)
        clock.runUntilIdle();
}

void
armBracedHalfDrain(Clock &clock, bool flush)
{
    int hits = 0;
    clock.schedule(10, [&hits] { ++hits; }); // Same, braced: finding.
    if (flush) {
        clock.runUntilIdle();
    }
}

void
armInLambda(Clock &clock)
{
    auto arm = [&clock] {
        int hits = 0;
        clock.schedule(10, [&] { ++hits; }); // Lambda returns: finding.
    };
    arm();
    clock.runUntilIdle(); // Drains the outer scope, not the lambda's.
}
