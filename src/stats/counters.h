/**
 * @file
 * Named monotonic counters with snapshot/diff support.
 *
 * The syscall-invocation figures of the paper (Figs. 11-14) are counts
 * of events per QPS over a measurement window; CounterSet provides the
 * snapshot-at-window-edges mechanics. Counters are plain atomics so hot
 * paths pay one relaxed increment.
 */

#ifndef MUSUITE_STATS_COUNTERS_H
#define MUSUITE_STATS_COUNTERS_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/threading.h"

namespace musuite {

/** A single monotonic event counter. */
class Counter
{
  public:
    void
    add(uint64_t n = 1)
    {
        value.fetch_add(n, std::memory_order_relaxed);
    }

    uint64_t get() const { return value.load(std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> value{0};
};

/** Point-in-time copy of a CounterSet. */
using CounterSnapshot = std::map<std::string, uint64_t>;

/**
 * A registry of named counters. Lookup is mutex-guarded (cold);
 * increments through the returned reference are lock-free. A counter
 * is never removed, so its reference stays valid for the life of the
 * set: a per-call path looks its counter up once and keeps the
 * reference (a function-local `static Counter &`).
 */
class CounterSet
{
  public:
    /** Find or create the counter with the given name. */
    Counter &counter(const std::string &name);

    /** Copy all current values. */
    CounterSnapshot snapshot() const;

    /** Per-name difference (after - before), omitting zero deltas. */
    static CounterSnapshot diff(const CounterSnapshot &before,
                                const CounterSnapshot &after);

    /** `name`'s value in a snapshot or a diff; 0 when absent. */
    static uint64_t valueOf(const CounterSnapshot &snapshot,
                            const std::string &name);

  private:
    mutable Mutex mutex{LockRank::counters, "stats.counters"};
    std::map<std::string, std::unique_ptr<Counter>> counters
        GUARDED_BY(mutex);
};

/** Process-global counter set used by the transport/ostrace layers. */
CounterSet &globalCounters();

} // namespace musuite

#endif // MUSUITE_STATS_COUNTERS_H
