/**
 * @file
 * Implementation of the counter registry.
 */

#include "stats/counters.h"

namespace musuite {

Counter &
CounterSet::counter(const std::string &name)
{
    MutexLock guard(mutex);
    auto &slot = counters[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

CounterSnapshot
CounterSet::snapshot() const
{
    MutexLock guard(mutex);
    CounterSnapshot snap;
    for (const auto &[name, counter] : counters)
        snap[name] = counter->get();
    return snap;
}

CounterSnapshot
CounterSet::diff(const CounterSnapshot &before, const CounterSnapshot &after)
{
    CounterSnapshot delta;
    for (const auto &[name, value] : after) {
        const uint64_t prior = valueOf(before, name);
        if (value > prior)
            delta[name] = value - prior;
    }
    return delta;
}

uint64_t
CounterSet::valueOf(const CounterSnapshot &snapshot, const std::string &name)
{
    auto it = snapshot.find(name);
    return it == snapshot.end() ? 0 : it->second;
}

CounterSet &
globalCounters()
{
    static CounterSet set;
    return set;
}

} // namespace musuite
