// Safe deferred captures: the clock drains before the scope dies, or
// the lambda captures by value.

struct Clock
{
    template <typename F> void schedule(long delayNs, F fn);
    void runUntilIdle();
};

void
armAndDrain(Clock &clock)
{
    int hits = 0;
    clock.schedule(10, [&hits] { ++hits; });
    clock.runUntilIdle(); // All timers fire before hits dies.
}

void
armByValue(Clock &clock)
{
    int hits = 0;
    clock.schedule(10, [hits] { (void)hits; }); // By value: safe.
}

void
armInLoopThenDrain(Clock &clock)
{
    int hits = 0;
    for (int i = 0; i < 3; ++i) {
        clock.schedule(10, [&hits] { ++hits; });
    }
    clock.runUntilIdle(); // Enclosing block: drains every registration.
}
