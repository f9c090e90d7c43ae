/**
 * @file
 * Runtime concurrency-correctness checks: lock ranks and thread roles.
 *
 * The static thread-safety annotations (base/thread_annotations.h)
 * prove that guarded data is touched with the right lock held; they
 * cannot prove the *order* locks are taken in, which is what deadlocks
 * are made of. This module adds the dynamic half, compiled in only
 * under `-DMUSUITE_DEBUG_SYNC=1` (CMake option MUSUITE_DEBUG_SYNC):
 *
 *  - Every musuite::Mutex / TracedMutex carries a LockRank. A thread
 *    may only acquire a ranked mutex whose rank is strictly greater
 *    than every ranked mutex it already holds; violations abort with
 *    the held-lock list and the acquisition backtrace.
 *  - Independently, every observed acquisition edge (held lock ->
 *    newly acquired lock) goes into a process-global graph. Closing a
 *    cycle — the classic ABBA deadlock, including through unranked
 *    mutexes — aborts with both backtraces: the current acquisition
 *    and the one that established the reverse edge.
 *  - Threads can claim a role (poller / worker / completion / timer /
 *    loadgen); callback-running entry paths assert the role they were
 *    designed for, so a refactor that moves a handler onto the wrong
 *    thread fails loudly instead of racing quietly.
 *
 * In release builds (the default) everything here is an empty inline
 * and the annotated wrappers behave exactly like the raw std types.
 *
 * Rank values encode the global acquisition order, outermost first.
 * The per-module assignments are documented in DESIGN.md; keep the two
 * in sync when adding a rank.
 */

#ifndef MUSUITE_BASE_SYNC_DEBUG_H
#define MUSUITE_BASE_SYNC_DEBUG_H

#include <cstddef>
#include <cstdint>
#include <initializer_list>

namespace musuite {

/**
 * Lock classes in acquisition order: a thread holding a lock of rank r
 * may only acquire locks of rank > r (unranked locks are exempt from
 * the order check but still feed the cycle detector). Gaps leave room
 * for new layers.
 */
enum class LockRank : int {
    unranked = 0,        //!< No ordering contract (tests, ad-hoc locks).
    loadgen = 10,        //!< Load-generator completion state.
    harness = 15,        //!< Experiment-harness shared RNG.
    fanout = 20,         //!< Fan-out merge state (services/common).
    call = 30,           //!< Per-call retry state (rpc/channel).
    ejection = 33,       //!< Outlier-ejection policy state (rpc/health)
                         //!< — held while reading peer trackers, so it
                         //!< ranks below peerHealth.
    peerHealth = 34,     //!< Per-peer health tracker (rpc/health).
    faultInjector = 35,  //!< Fault-injection RNG (rpc/fault).
    admission = 37,      //!< Server admission controller (rpc/overload).
    clientConn = 40,     //!< Client connection + pending table.
    serverConns = 45,    //!< Server per-shard connection table.
    queue = 50,          //!< Task queues and rendezvous cells.
    timer = 60,          //!< Shared timer heap (base/clock RealClock).
    kvShard = 65,        //!< mucache shard (kv/mucache).
    frameOut = 70,       //!< Framed-connection outbound buffer.
    wirePool = 72,       //!< Wire-buffer recycling pool (serde/wire) —
                         //!< taken inside the frame flush path.
    osTraceRegistry = 74,//!< ostrace thread registry.
    osTraceLocal = 76,   //!< ostrace per-thread histograms.
    counters = 80,       //!< Counter registry (stats/counters).
    latch = 85,          //!< Countdown latches (base/threading).
    logSink = 90,        //!< Logging sink (base/logging) — leaf: log
                         //!< statements run under arbitrary locks.
};

/** Human-readable rank name for diagnostics. */
const char *lockRankName(LockRank rank);

/**
 * The thread roles of the µSuite threading model (paper Fig. 8).
 * `unknown` (the default for unclaimed threads — main, tests) passes
 * every role assertion, because tests legitimately drive poller-path
 * code inline.
 */
enum class ThreadRole : uint8_t {
    unknown = 0,
    poller,     //!< Server network/request-reception thread.
    worker,     //!< Server RPC-handler thread.
    completion, //!< Client leaf-response completion thread.
    timer,      //!< Shared timer thread (base/clock RealClock).
    loadgen,    //!< Load-generator issuing thread.
};

const char *threadRoleName(ThreadRole role);

/** Claim a role for the calling thread (cheap thread-local store). */
void setCurrentThreadRole(ThreadRole role);

/** The calling thread's claimed role (unknown if never set). */
ThreadRole currentThreadRole();

namespace syncdbg {

#if defined(MUSUITE_DEBUG_SYNC) && MUSUITE_DEBUG_SYNC

/**
 * Validate that acquiring `mutex` now respects the rank order and
 * closes no cycle in the acquisition graph. Aborts (after printing the
 * held-lock list and backtraces) on violation. Call before blocking on
 * the underlying lock so a real deadlock is reported, not entered.
 */
void checkAcquire(const void *mutex, LockRank rank, const char *name);

/** Push `mutex` onto the calling thread's held-lock stack. */
void recordAcquired(const void *mutex, LockRank rank, const char *name);

/** Remove `mutex` from the calling thread's held-lock stack. */
void recordReleased(const void *mutex);

/** Abort unless the calling thread's role is `expected` or unknown. */
void assertRole(ThreadRole expected, const char *where);

/** Abort unless the role is unknown or one of `allowed`. */
void assertRoleOneOf(std::initializer_list<ThreadRole> allowed,
                     const char *where);

/** Number of locks the calling thread currently holds (tests). */
size_t heldLockCount();

#else // !MUSUITE_DEBUG_SYNC — all checks compile to nothing.

inline void checkAcquire(const void *, LockRank, const char *) {}
inline void recordAcquired(const void *, LockRank, const char *) {}
inline void recordReleased(const void *) {}
inline void assertRole(ThreadRole, const char *) {}
inline void
assertRoleOneOf(std::initializer_list<ThreadRole>, const char *)
{}
inline size_t heldLockCount() { return 0; }

#endif // MUSUITE_DEBUG_SYNC

} // namespace syncdbg

// --------------------------------------------------------------------
// Thread-role assertions for callback-running entry paths. No-ops in
// release builds; in MUSUITE_DEBUG_SYNC builds they abort when a
// claimed thread of the wrong role reaches the path.
// --------------------------------------------------------------------

inline void
assertOnPollerThread()
{
    syncdbg::assertRole(ThreadRole::poller, "poller-only path");
}

inline void
assertOnWorkerThread()
{
    syncdbg::assertRole(ThreadRole::worker, "worker-only path");
}

inline void
assertOnCompletionThread()
{
    syncdbg::assertRole(ThreadRole::completion, "completion-only path");
}

inline void
assertOnTimerThread()
{
    syncdbg::assertRole(ThreadRole::timer, "timer-only path");
}

/** Frame reads happen on a server poller or a client completion
 *  thread; both own a Poller. */
inline void
assertOnFrameReaderThread()
{
    syncdbg::assertRoleOneOf(
        {ThreadRole::poller, ThreadRole::completion},
        "frame-reader path");
}

} // namespace musuite

#endif // MUSUITE_BASE_SYNC_DEBUG_H
