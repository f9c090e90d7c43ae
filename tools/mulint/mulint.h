/**
 * @file
 * mulint public API: parse a source tree into the model, run the rule
 * set, return findings. Used by main.cc (the CLI wired into
 * tools/check.sh) and by tests/mulint_test.cc (which runs the rules
 * over the fixture corpus and over the repository's own src/).
 *
 * Rule identifiers (also the pragma vocabulary, see DESIGN.md):
 *
 *   lock-rank        static acquisition-order analysis over LockRank
 *   raw-sync         raw std primitives / naked .lock()/.unlock()
 *   guarded-by       Mutex members never named in any annotation
 *   thread-role      blocking calls reachable from poller-role threads
 *   bad-pragma       malformed or unjustified allow pragmas
 *   clock-seam       raw time sources reachable from rpc/services/simkernel
 *   lock-across-blocking  locks held across (transitively) blocking calls
 *   counter-registry counter names: src emission vs DESIGN.md vs tests
 *   stale-pragma     allow pragmas that no longer suppress anything
 *   dangling-capture by-ref lambda captures handed to deferred schedule()
 *
 * clock-seam, lock-across-blocking, counter-registry, stale-pragma and
 * lock-rank's cross-call half are interprocedural: they run over a
 * whole-program call graph (callgraph.h) with per-function summaries
 * propagated to a fixpoint (summary.h), so a finding can cite a
 * transitive witness chain like "handle -> pollOnce -> nowNanos".
 *
 * Every rule reads the token stream in order; none builds a control-
 * flow graph. Locks are held from a guard's declaration to the close
 * of its brace scope, and a MutexUnlock window suspends one until its
 * own scope closes (finalizeTree). Brace blocks stand in for paths in
 * dangling-capture.
 *
 * Two invariants hold by construction instead of by a rule: the sync
 * wrappers return a Reply whose payload is empty unless the call
 * succeeded (base/status.h), so there is no value to read unchecked,
 * and the LockRank enum (base/sync_debug.h) is the only rank table;
 * -Wswitch keeps lockRankName() complete.
 *
 * Fan-out deadline propagation is not a rule: services reach their
 * leaves only through services/common/fanout.h's Downstream pool,
 * which reads the inbound budget itself, so the invariant holds by
 * construction.
 *
 * Findings are suppressed by `// mulint: allow(<rule>): <justification>`
 * on the finding's line or the line above; the justification text is
 * mandatory (enforced by bad-pragma).
 */

#ifndef MULINT_MULINT_H
#define MULINT_MULINT_H

#include <string>
#include <vector>

#include "model.h"

namespace mulint {

struct Options
{
    /** Rules to run; empty = all. */
    std::set<std::string> rules;
    /** Keep pragma-suppressed findings in the result with
     *  Finding::suppressed set, instead of dropping them. The --json
     *  mode uses this so suppressions stay auditable; the exit-code
     *  path must count only unsuppressed findings. */
    bool keepSuppressed = false;
};

/** Pass 1: lex `content` and extract per-file facts. */
FileModel parseFile(const std::string &rel, const std::string &content);

/**
 * Finish a Tree after all files are parsed: locate the LockRank enum,
 * then run the per-function body walk
 * (held locks + call extraction). Intra-function lock-rank findings
 * are appended to `findings`.
 */
void finalizeTree(Tree &tree, std::vector<Finding> &findings);

/** Code index of the first code token at or after raw token index. */
size_t codeIndexOf(const FileModel &fm, size_t rawIdx);

/**
 * Code indices of `fn`'s own body tokens, between its braces, with
 * nested function bodies (lambdas, local classes) skipped: those run
 * later, elsewhere, and are analyzed as functions of their own.
 */
std::vector<size_t> ownBody(const FileModel &fm, const FunctionInfo &fn);

/**
 * Run the cross-file rules over a finalized tree. `designLines` holds
 * DESIGN.md split into lines (counter-registry reads its counter
 * table). Appends to `findings`.
 */
void runRules(const Tree &tree,
              const std::vector<std::string> &designLines,
              const Options &options, std::vector<Finding> &findings);

/**
 * Remove findings covered by an allow pragma (same line or the line
 * above, matching rule), then append bad-pragma findings and drop
 * rules not enabled in `options`. Returns the surviving findings,
 * sorted by (file, line, rule).
 */
std::vector<Finding> applyPragmas(const Tree &tree,
                                  std::vector<Finding> findings,
                                  const Options &options);

/**
 * One-call driver: scan the .h/.cc files under `root`/src plus
 * `root`/DESIGN.md and
 * return the surviving findings. On I/O failure returns empty and sets
 * `error`.
 */
std::vector<Finding> analyzeTree(const std::string &root,
                                 const Options &options,
                                 std::string *error);

} // namespace mulint

#endif // MULINT_MULINT_H
