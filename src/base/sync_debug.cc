/**
 * @file
 * Implementation of the lock-rank checker and thread-role registry.
 *
 * The checker deliberately uses raw std primitives and fprintf for its
 * own bookkeeping: it must never re-enter the ranked wrappers it
 * polices, and its abort paths must work while arbitrary application
 * locks are held.
 */

#include "base/sync_debug.h"

#include <cstdio>
#include <cstdlib>

#if defined(MUSUITE_DEBUG_SYNC) && MUSUITE_DEBUG_SYNC
#include <execinfo.h>

#include <map>
#include <mutex>
#include <utility>
#include <vector>
#endif

namespace musuite {

const char *
lockRankName(LockRank rank)
{
    switch (rank) {
      case LockRank::unranked:        return "unranked";
      case LockRank::loadgen:         return "loadgen";
      case LockRank::harness:         return "harness";
      case LockRank::fanout:          return "fanout";
      case LockRank::call:            return "rpc.call";
      case LockRank::ejection:        return "rpc.ejection";
      case LockRank::peerHealth:      return "rpc.health";
      case LockRank::faultInjector:   return "rpc.fault";
      case LockRank::admission:       return "rpc.admission";
      case LockRank::clientConn:      return "rpc.client.conn";
      case LockRank::serverConns:     return "rpc.server.conns";
      case LockRank::queue:           return "queue";
      case LockRank::timer:           return "rpc.timers";
      case LockRank::kvShard:         return "kv.shard";
      case LockRank::frameOut:        return "net.frame.out";
      case LockRank::wirePool:        return "serde.wirepool";
      case LockRank::osTraceRegistry: return "ostrace.registry";
      case LockRank::osTraceLocal:    return "ostrace.local";
      case LockRank::counters:        return "stats.counters";
      case LockRank::latch:           return "latch";
      case LockRank::logSink:         return "log.sink";
    }
    return "?";
}

const char *
threadRoleName(ThreadRole role)
{
    switch (role) {
      case ThreadRole::unknown:    return "unknown";
      case ThreadRole::poller:     return "poller";
      case ThreadRole::worker:     return "worker";
      case ThreadRole::completion: return "completion";
      case ThreadRole::timer:      return "timer";
      case ThreadRole::loadgen:    return "loadgen";
    }
    return "?";
}

namespace {
thread_local ThreadRole t_role = ThreadRole::unknown;
} // namespace

void
setCurrentThreadRole(ThreadRole role)
{
    t_role = role;
}

ThreadRole
currentThreadRole()
{
    return t_role;
}

#if defined(MUSUITE_DEBUG_SYNC) && MUSUITE_DEBUG_SYNC

namespace syncdbg {
namespace {

constexpr int maxStackDepth = 32;

/** One lock the calling thread currently holds. */
struct HeldLock
{
    const void *mutex;
    LockRank rank;
    const char *name;
};

/**
 * Fixed-size and trivially destructible on purpose: ranked locks are
 * still taken during thread teardown (e.g. by other thread_local
 * destructors deregistering from ostrace), and destruction order
 * between thread_locals is unspecified — a std::vector here would be
 * a use-after-destroy.
 */
constexpr size_t maxHeldLocks = 64;
thread_local HeldLock t_held[maxHeldLocks];
thread_local size_t t_held_count = 0;

/** Backtrace captured when an acquisition edge was first observed. */
struct EdgeInfo
{
    const char *fromName;
    const char *toName;
    void *stack[maxStackDepth];
    int depth;
};

/**
 * Graph bookkeeping. Guarded by a plain std::mutex: the checker runs
 * *around* application lock operations, never inside another checker
 * call on the same thread, so this lock is a leaf by construction.
 */
std::mutex g_graph_mutex;

/** Node ids: ranked locks collapse to their rank class; unranked
 *  locks are per-instance. */
uint64_t g_next_instance_node = 1ull << 32;
std::map<const void *, uint64_t> *g_instance_nodes;

/** Acquisition edges (from-node -> to-node). */
std::map<std::pair<uint64_t, uint64_t>, EdgeInfo> *g_edges;

uint64_t
nodeForLocked(const void *mutex, LockRank rank)
{
    if (rank != LockRank::unranked)
        return uint64_t(int(rank));
    if (!g_instance_nodes)
        g_instance_nodes = new std::map<const void *, uint64_t>();
    auto [it, inserted] =
        g_instance_nodes->emplace(mutex, g_next_instance_node);
    if (inserted)
        ++g_next_instance_node;
    return it->second;
}

void
printBacktrace(void *const *stack, int depth)
{
    if (depth > 0)
        backtrace_symbols_fd(stack, depth, 2 /* stderr */);
}

void
printCurrentBacktrace()
{
    void *stack[maxStackDepth];
    const int depth = backtrace(stack, maxStackDepth);
    printBacktrace(stack, depth);
}

void
printHeldLocks()
{
    std::fprintf(stderr, "  held locks (outermost first):\n");
    for (size_t i = 0; i < t_held_count; ++i) {
        const HeldLock &held = t_held[i];
        std::fprintf(stderr, "    %-20s rank %3d  (%p)\n",
                     held.name ? held.name : lockRankName(held.rank),
                     int(held.rank), held.mutex);
    }
}

[[noreturn]] void
abortSyncDebug()
{
    std::fflush(stderr);
    std::abort();
}

/** Depth-first search: is `target` reachable from `from`? Returns the
 *  first edge of a found path via `first_edge`. */
bool
reachableLocked(uint64_t from, uint64_t target,
                std::vector<uint64_t> &visited,
                const EdgeInfo **first_edge)
{
    for (uint64_t seen : visited) {
        if (seen == from)
            return false;
    }
    visited.push_back(from);
    if (!g_edges)
        return false;
    auto it = g_edges->lower_bound({from, 0});
    for (; it != g_edges->end() && it->first.first == from; ++it) {
        if (it->first.second == target ||
            reachableLocked(it->first.second, target, visited,
                            nullptr)) {
            if (first_edge)
                *first_edge = &it->second;
            return true;
        }
    }
    return false;
}

} // namespace

void
checkAcquire(const void *mutex, LockRank rank, const char *name)
{
    if (!name)
        name = lockRankName(rank);

    for (size_t i = 0; i < t_held_count; ++i) {
        const HeldLock &held = t_held[i];
        if (held.mutex == mutex) {
            std::fprintf(stderr,
                         "musuite sync_debug: recursive acquisition of "
                         "\"%s\" (rank %d, %p)\n",
                         name, int(rank), mutex);
            printHeldLocks();
            std::fprintf(stderr, "  acquisition stack:\n");
            printCurrentBacktrace();
            abortSyncDebug();
        }
        if (rank != LockRank::unranked &&
            held.rank != LockRank::unranked && held.rank >= rank) {
            std::fprintf(
                stderr,
                "musuite sync_debug: lock rank violation: acquiring "
                "\"%s\" (rank %d) while holding \"%s\" (rank %d)\n",
                name, int(rank),
                held.name ? held.name : lockRankName(held.rank),
                int(held.rank));
            printHeldLocks();
            std::fprintf(stderr, "  acquisition stack:\n");
            printCurrentBacktrace();
            abortSyncDebug();
        }
    }

    if (t_held_count == 0)
        return;

    // Record the (outermost-held -> acquiring) edge and look for a
    // cycle. The innermost held lock is the direct predecessor.
    const HeldLock &top = t_held[t_held_count - 1];
    std::lock_guard<std::mutex> guard(g_graph_mutex);
    const uint64_t from = nodeForLocked(top.mutex, top.rank);
    const uint64_t to = nodeForLocked(mutex, rank);
    if (from == to)
        return; // Same lock class; rank check already vetted order.
    if (!g_edges)
        g_edges =
            new std::map<std::pair<uint64_t, uint64_t>, EdgeInfo>();
    if (g_edges->count({from, to}))
        return; // Known-good edge.

    // Adding from->to closes a cycle iff `from` is reachable from
    // `to` through existing edges.
    std::vector<uint64_t> visited;
    const EdgeInfo *reverse_edge = nullptr;
    if (reachableLocked(to, from, visited, &reverse_edge)) {
        std::fprintf(
            stderr,
            "musuite sync_debug: lock acquisition cycle: acquiring "
            "\"%s\" (%p) while holding \"%s\" (%p) inverts an "
            "established order\n",
            name, mutex,
            top.name ? top.name : lockRankName(top.rank), top.mutex);
        printHeldLocks();
        std::fprintf(stderr, "  this acquisition:\n");
        printCurrentBacktrace();
        if (reverse_edge) {
            std::fprintf(
                stderr,
                "  conflicting order \"%s\" -> \"%s\" established "
                "here:\n",
                reverse_edge->fromName, reverse_edge->toName);
            printBacktrace(reverse_edge->stack, reverse_edge->depth);
        }
        abortSyncDebug();
    }

    EdgeInfo info;
    info.fromName = top.name ? top.name : lockRankName(top.rank);
    info.toName = name;
    info.depth = backtrace(info.stack, maxStackDepth);
    g_edges->emplace(std::make_pair(from, to), info);
}

void
recordAcquired(const void *mutex, LockRank rank, const char *name)
{
    if (t_held_count == maxHeldLocks) {
        std::fprintf(stderr,
                     "musuite sync_debug: more than %zu locks held by "
                     "one thread — raise maxHeldLocks or fix the "
                     "caller\n",
                     maxHeldLocks);
        abortSyncDebug();
    }
    t_held[t_held_count++] = {mutex, rank,
                              name ? name : lockRankName(rank)};
}

void
recordReleased(const void *mutex)
{
    for (size_t i = t_held_count; i-- > 0;) {
        if (t_held[i].mutex == mutex) {
            for (size_t j = i + 1; j < t_held_count; ++j)
                t_held[j - 1] = t_held[j];
            --t_held_count;
            return;
        }
    }
    // Releasing a lock we never saw acquired: tolerated (e.g. a lock
    // taken before this TU's checks were enabled).
}

size_t
heldLockCount()
{
    return t_held_count;
}

void
assertRole(ThreadRole expected, const char *where)
{
    const ThreadRole current = currentThreadRole();
    if (current == ThreadRole::unknown || current == expected)
        return;
    std::fprintf(stderr,
                 "musuite sync_debug: thread role violation: %s "
                 "reached from a \"%s\" thread (expected \"%s\")\n",
                 where, threadRoleName(current),
                 threadRoleName(expected));
    printCurrentBacktrace();
    abortSyncDebug();
}

void
assertRoleOneOf(std::initializer_list<ThreadRole> allowed,
                const char *where)
{
    const ThreadRole current = currentThreadRole();
    if (current == ThreadRole::unknown)
        return;
    for (ThreadRole role : allowed) {
        if (current == role)
            return;
    }
    std::fprintf(stderr,
                 "musuite sync_debug: thread role violation: %s "
                 "reached from a \"%s\" thread\n",
                 where, threadRoleName(current));
    printCurrentBacktrace();
    abortSyncDebug();
}

} // namespace syncdbg

#endif // MUSUITE_DEBUG_SYNC

} // namespace musuite
