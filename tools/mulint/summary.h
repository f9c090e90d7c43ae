/**
 * @file
 * Interprocedural function summaries: per-function facts (ranks
 * acquired, blocking behavior, raw-time touches) propagated over the
 * call graph to a fixpoint, plus the call-site classifiers the
 * propagation and the rules share.
 *
 * The model is a standard bottom-up summary analysis: each function
 * starts from the facts its own body exhibits directly, then unions in
 * its callees' summaries until nothing changes. The lattice per
 * property is {unknown < yes}, so the fixpoint is monotone and
 * terminates in O(edges * properties) regardless of recursion; the
 * rank set is bounded by the LockRank enum. Member calls and indirect
 * calls contribute nothing (callgraph.h), so a "yes" is always backed
 * by a concrete witness chain and an "unknown" means exactly that.
 *
 * Witnesses: a property carries either the primitive call that caused
 * it directly, or the graph index of the callee it flowed in from.
 * witnessChain() re-walks those links into a human-readable
 * "f -> g -> nowNanos" path for the finding message.
 */

#ifndef MULINT_SUMMARY_H
#define MULINT_SUMMARY_H

#include "callgraph.h"

namespace mulint {

/** Fixpoint facts for one function (aligned with CallGraph::fns). */
struct Summary
{
    /** Ranks this function may acquire, directly or transitively. */
    std::set<int> ranks;
    /** May block: sleeps, BlockingQueue pop/push, sendAll/recvAll,
     *  callSync/simCallSync. CondVar waits are deliberately excluded —
     *  they release the lock they hold, so treating them as blocking
     *  would flag every wait loop. */
    bool blocks = false;
    /** May read or sleep on the raw wall clock: free nowNanos()/
     *  nowMicros()/sleepForNanos()/sleepUntilNanos(), std::chrono
     *  clock reads, this_thread sleeps, CondVar timed waits. */
    bool touchesRealTime = false;

    // Witnesses: direct primitive name, or the callee edge the
    // property arrived through (SIZE_MAX = none / direct).
    std::string blockDirect;
    size_t blockVia = SIZE_MAX;
    int blockLine = 0;
    std::string timeDirect;
    size_t timeVia = SIZE_MAX;
    int timeLine = 0;
};

struct Summaries
{
    std::vector<Summary> byFn;
};

/** Per-module variable tables the call-site classifiers match against
 *  (a header's declarations are visible to its .cc and vice versa). */
struct ModuleSets
{
    std::map<std::string, std::set<std::string>> queuesByStem;
    std::map<std::string, std::set<std::string>> condVarsByStem;

    const std::set<std::string> &
    queues(const std::string &stem) const
    {
        static const std::set<std::string> empty;
        auto it = queuesByStem.find(stem);
        return it == queuesByStem.end() ? empty : it->second;
    }

    const std::set<std::string> &
    condVars(const std::string &stem) const
    {
        static const std::set<std::string> empty;
        auto it = condVarsByStem.find(stem);
        return it == condVarsByStem.end() ? empty : it->second;
    }
};

ModuleSets collectModuleSets(const Tree &tree);

/**
 * Does this call site hit a raw wall-clock primitive directly?
 * Member calls are exempt (clock().nowNanos() is the sanctioned
 * form) except CondVar timed waits, which measure wall time no
 * matter what clock the surrounding code is bound to. `what` gets
 * the primitive's display name.
 */
bool callIsRawTime(const CallSite &call,
                   const std::set<std::string> &condVars,
                   std::string *what);

/** Does this call site block directly? (See Summary::blocks.) */
bool callIsBlocking(const CallSite &call,
                    const std::set<std::string> &queues,
                    std::string *what);

/** Is this a Clock::schedule / engine.schedule callback registration? */
bool callIsScheduleRegistration(const CallSite &call);

/** Run the summary fixpoint over the whole graph. */
Summaries computeSummaries(const Tree &tree, const CallGraph &g);

/**
 * Reconstruct the witness path for `fn`'s property (`time` = raw-time,
 * otherwise blocking) as "f -> g -> primitive". Empty if the function
 * does not have the property.
 */
std::string witnessChain(const Tree &tree, const CallGraph &g,
                         const Summaries &summaries, size_t fn,
                         bool time);

/** Same walk as witnessChain, one hop per element — the structured
 *  form carried on Finding::witness for --json output. */
std::vector<std::string> witnessPath(const Tree &tree,
                                     const CallGraph &g,
                                     const Summaries &summaries,
                                     size_t fn, bool time);

} // namespace mulint

#endif // MULINT_SUMMARY_H
