/**
 * @file
 * Generic forward-dataflow framework over the per-function CFG
 * (cfg.h), plus the flow-sensitive analyses built on it.
 *
 * An analysis supplies a State type and four operations:
 *
 *   State boundary()                       — state at function entry
 *   State transfer(cfg, block, in)         — apply a block's statements
 *   State refine(edge, out)                — narrow along a Cond edge
 *   bool  join(State &into, const State &) — merge; true if `into` grew
 *
 * runForward() iterates transfer+join to a fixpoint with a worklist in
 * reverse post-order and returns the IN state of every reachable
 * block. Analyses then make a second, single deterministic pass in RPO
 * replaying transfer with reporting enabled, so findings never depend
 * on fixpoint iteration order.
 *
 * Termination is the analysis's responsibility (finite lattice,
 * monotone join); a generous iteration guard backstops mistakes.
 *
 * The concrete analyses (dataflow.cc):
 *
 *   runLockAnalysis    — path-sensitive lock-sets. Replaces the old
 *                        linear held-lock stack simulation: emits
 *                        intra-function lock-rank findings, fills
 *                        CallSite::heldRank (may-held, so conditional
 *                        locks are seen) and FunctionInfo::directRanks
 *                        for the interprocedural summaries (PR 7).
 *   runUseBeforeCheck  — Result<T> value()/take() on a path where
 *                        isOk() has not been established.
 *   runDanglingCapture — by-reference lambda captures handed to a
 *                        deferred schedule() registration that can
 *                        outlive the enclosing scope.
 */

#ifndef MULINT_DATAFLOW_H
#define MULINT_DATAFLOW_H

#include <optional>
#include <set>

#include "cfg.h"

namespace mulint {

template <typename P>
std::vector<std::optional<typename P::State>>
runForward(const Cfg &cfg, P &p)
{
    using State = typename P::State;
    std::vector<std::optional<State>> in(cfg.blocks.size());
    if (cfg.blocks.empty())
        return in;

    std::vector<size_t> rpoPos(cfg.blocks.size(), SIZE_MAX);
    for (size_t i = 0; i < cfg.rpo.size(); ++i)
        rpoPos[cfg.rpo[i]] = i;

    in[cfg.entry] = p.boundary();
    std::set<size_t> work; // RPO positions: forward order first.
    work.insert(rpoPos[cfg.entry]);

    // Backstop: |blocks| * lattice height is the honest bound; this is
    // far above anything a real function reaches.
    size_t guard = 64 * (cfg.blocks.size() + 4) * (cfg.blocks.size() + 4);
    while (!work.empty() && guard-- > 0) {
        size_t b = cfg.rpo[*work.begin()];
        work.erase(work.begin());
        State out = p.transfer(cfg, b, *in[b]);
        for (const CfgEdge &e : cfg.blocks[b].succs) {
            State refined = p.refine(e, out);
            bool changed;
            if (!in[e.to]) {
                in[e.to] = std::move(refined);
                changed = true;
            } else {
                changed = p.join(*in[e.to], refined);
            }
            if (changed && rpoPos[e.to] != SIZE_MAX)
                work.insert(rpoPos[e.to]);
        }
    }
    return in;
}

/** Path-sensitive lock analysis over every function in the tree.
 *  Mutates FunctionInfo (heldRank annotations, directRanks) and
 *  appends intra-function lock-rank findings. Runs in finalizeTree. */
void runLockAnalysis(Tree &tree, std::vector<Finding> &findings);

void runUseBeforeCheck(const Tree &tree, std::vector<Finding> &findings);
void runDanglingCapture(const Tree &tree,
                        std::vector<Finding> &findings);

} // namespace mulint

#endif // MULINT_DATAFLOW_H
