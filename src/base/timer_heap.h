/**
 * @file
 * TimerHeap: the one timer store behind both Clock bindings.
 *
 * A binary min-heap of (deadline, handle) entries over a pool of
 * callback slots. Each arm takes the next value of a strictly
 * increasing sequence number `seq` and a slot from the pool (freed
 * slots are recycled through a free list, so the pool never outgrows
 * the peak number of live timers). The handle packs both:
 *
 *     handle = seq << kSlotBits | slot
 *
 * Because seq sits in the high bits and is unique, ordering entries by
 * (deadline, handle) is ordering them by (deadline, seq): timers due at
 * the same instant fire in arming order.
 *
 * A slot remembers the seq of the timer that holds it (0 while free).
 * A handle is live only while its slot still holds its seq, so a stale
 * handle (its timer fired or was cancelled, and the slot may since have
 * been reused), the zero handle and a handle from another heap all
 * fail that check and cancel nothing.
 *
 * Cancellation is lazy: cancel() frees the slot at once (destroying the
 * callback) and leaves the heap entry to be skipped when it surfaces.
 * It is also bounded: once the heap holds at least kCompactMinEntries
 * entries and more than twice the live count, it is rebuilt from the
 * live entries, so the heap always stays below 2 * live + 64 entries.
 *
 * Not thread-safe: SimClock is single-threaded by contract, RealClock
 * guards its TimerHeap with its own mutex.
 */

#ifndef MUSUITE_BASE_TIMER_HEAP_H
#define MUSUITE_BASE_TIMER_HEAP_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "base/logging.h"

namespace musuite {

class TimerHeap
{
  public:
    using Handle = uint64_t;

    /** A popped timer: its deadline, its seq and its callback. */
    struct Expired
    {
        int64_t deadlineNs;
        uint64_t seq;
        std::function<void()> fn;
    };

    static constexpr unsigned kSlotBits = 24;
    static constexpr size_t kCompactMinEntries = 64;

    /** The arm sequence number a handle carries (0 for handle 0). */
    static uint64_t seqOf(Handle handle) { return handle >> kSlotBits; }

    /** Arm `fn` at `deadline_ns`; the returned handle is never 0. */
    Handle
    arm(int64_t deadline_ns, std::function<void()> fn)
    {
        const uint64_t seq = nextSeq++;
        MUSUITE_CHECK(seq < (uint64_t(1) << (64 - kSlotBits)))
            << "timer sequence exhausted";
        uint32_t slot;
        if (freeSlots.empty()) {
            MUSUITE_CHECK(slots.size() < (size_t(1) << kSlotBits))
                << "too many live timers";
            slot = uint32_t(slots.size());
            slots.emplace_back();
        } else {
            slot = freeSlots.back();
            freeSlots.pop_back();
        }
        slots[slot].seq = seq;
        slots[slot].fn = std::move(fn);
        const Handle handle = seq << kSlotBits | slot;
        heap.push_back({deadline_ns, handle});
        std::push_heap(heap.begin(), heap.end(), Later());
        ++liveCount;
        return handle;
    }

    /** True iff `handle` was live (its callback now never runs). */
    bool
    cancel(Handle handle)
    {
        const uint64_t seq = seqOf(handle);
        const size_t slot = handle & kSlotMask;
        if (seq == 0 || slot >= slots.size() || slots[slot].seq != seq)
            return false;
        // Destroyed on return, once the heap is consistent again: the
        // callback's captures may arm or cancel timers as they die.
        const std::function<void()> doomed = std::move(slots[slot].fn);
        slots[slot].fn = nullptr;
        release(slot);
        maybeCompact();
        return true;
    }

    bool empty() const { return liveCount == 0; }
    /** Timers armed and neither fired nor cancelled. */
    size_t live() const { return liveCount; }
    /** Heap entries including dead (cancelled) ones. */
    size_t heapSize() const { return heap.size(); }

    /** The earliest live deadline. Requires !empty(). */
    int64_t
    nextDeadline()
    {
        dropDeadHeads();
        return heap.front().deadlineNs;
    }

    /**
     * Remove the earliest live timer and hand it back. Its slot is free
     * before the caller runs the callback, so the callback may arm and
     * cancel freely. Requires !empty().
     */
    Expired
    popNext()
    {
        dropDeadHeads();
        const Entry top = heap.front();
        std::pop_heap(heap.begin(), heap.end(), Later());
        heap.pop_back();
        const size_t slot = top.handle & kSlotMask;
        Expired expired{top.deadlineNs, seqOf(top.handle),
                        std::move(slots[slot].fn)};
        slots[slot].fn = nullptr;
        release(slot);
        maybeCompact();
        return expired;
    }

  private:
    static constexpr Handle kSlotMask = (Handle(1) << kSlotBits) - 1;

    struct Entry
    {
        int64_t deadlineNs;
        Handle handle;
    };

    /** Heap order: the root is the earliest (deadline, seq). */
    struct Later
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            return a.deadlineNs != b.deadlineNs
                       ? a.deadlineNs > b.deadlineNs
                       : a.handle > b.handle;
        }
    };

    struct Slot
    {
        uint64_t seq = 0; //!< Holder's seq; 0 while free.
        std::function<void()> fn;
    };

    bool
    isLive(const Entry &entry) const
    {
        return slots[entry.handle & kSlotMask].seq == seqOf(entry.handle);
    }

    void
    release(size_t slot)
    {
        slots[slot].seq = 0;
        freeSlots.push_back(uint32_t(slot));
        --liveCount;
    }

    void
    dropDeadHeads()
    {
        while (!isLive(heap.front())) {
            std::pop_heap(heap.begin(), heap.end(), Later());
            heap.pop_back();
        }
    }

    /** Rebuild from the live entries once dead ones are the majority. */
    void
    maybeCompact()
    {
        if (heap.size() < kCompactMinEntries ||
            heap.size() <= 2 * liveCount)
            return;
        heap.erase(std::remove_if(heap.begin(), heap.end(),
                                  [this](const Entry &entry) {
                                      return !isLive(entry);
                                  }),
                   heap.end());
        std::make_heap(heap.begin(), heap.end(), Later());
    }

    std::vector<Entry> heap;
    std::vector<Slot> slots;
    std::vector<uint32_t> freeSlots;
    uint64_t nextSeq = 1;
    size_t liveCount = 0;
};

} // namespace musuite

#endif // MUSUITE_BASE_TIMER_HEAP_H
