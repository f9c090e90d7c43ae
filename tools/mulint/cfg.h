/**
 * @file
 * Per-function control-flow graphs for mulint.
 *
 * buildCfg() turns one FunctionInfo's token range into basic blocks
 * connected by edges: if/else, while/do/for (including range-for),
 * switch with fallthrough, break/continue/return, and short-circuit
 * `&&`/`||` conditions decomposed into one block per atom so dataflow
 * analyses (dataflow.h) can refine state along the true and false
 * edges of each atom independently.
 *
 * Statements are not re-parsed into ASTs: a Stmt is a token range plus
 * a kind, and analyses walk the range with the same token-pattern
 * matching the rest of mulint uses. Synthetic ScopeEnd statements mark
 * where a lexical scope closes (including before break/continue edges
 * that jump out of it) so RAII state such as held locks can be
 * released path-precisely.
 *
 * This header also owns the mutex-resolution tables that used to live
 * inside parse.cc: the lock dataflow (dataflow.cc) and the parser both
 * need them.
 */

#ifndef MULINT_CFG_H
#define MULINT_CFG_H

#include "model.h"

namespace mulint {

// --------------------------------------------------------------------
// Token cursor over a FileModel's code-token index space.
// --------------------------------------------------------------------

/** Read-only cursor over fm.code; `ci` below is a code index. */
struct Cur
{
    const FileModel &fm;

    size_t
    size() const
    {
        return fm.code.size();
    }

    const Token &
    tok(size_t ci) const
    {
        return fm.toks[fm.code[ci]];
    }

    size_t
    match(size_t ci) const
    {
        return ci < fm.codeMatch.size() ? fm.codeMatch[ci] : SIZE_MAX;
    }

    bool
    isPunct(size_t ci, const char *s) const
    {
        return ci < size() && tok(ci).kind == Tok::Punct &&
               tok(ci).text == s;
    }

    bool
    isIdent(size_t ci) const
    {
        return ci < size() && tok(ci).kind == Tok::Ident;
    }

    bool
    isIdent(size_t ci, const char *s) const
    {
        return isIdent(ci) && tok(ci).text == s;
    }

    /** Code index of the first code token at or after raw index. */
    size_t
    codeIndexOf(size_t rawIdx) const;
};

/** Space-joined token text of [fromCi, toCi). */
std::string codeText(const Cur &c, size_t fromCi, size_t toCi);

/** Last identifier (excluding `this`) in [fromCi, toCi), or "". */
std::string lastIdentIn(const Cur &c, size_t fromCi, size_t toCi);

// --------------------------------------------------------------------
// Mutex resolution (shared by parse.cc and the lock dataflow).
// --------------------------------------------------------------------

/** A mutex name resolved against the module declaration table. */
struct ResolvedMutex
{
    bool known = false;
    int value = 0; //!< 0 = unranked (exempt from the order check).
    std::string rankName;
};

/** Per-module (file-stem) mutex declaration table. */
struct MutexTable
{
    // name -> declarations (possibly several classes in one module).
    std::map<std::string,
             std::vector<std::pair<std::string, ResolvedMutex>>>
        decls; // pair: (class scope, resolution)
};

ResolvedMutex resolveMutexDecl(const Tree &tree, const MutexDecl &decl);

/**
 * Look up `name` in the module table, preferring a declaration whose
 * class scope matches `fnScope`. Ambiguity (several declarations with
 * different resolutions and no scope match) yields unknown.
 */
ResolvedMutex lookupMutex(const MutexTable &table,
                          const std::string &name,
                          const std::string &fnScope);

/** One table per file stem: a header's mutexes are visible to its .cc. */
std::map<std::string, MutexTable> buildMutexTables(const Tree &tree);

// --------------------------------------------------------------------
// The CFG itself.
// --------------------------------------------------------------------

struct Stmt
{
    enum Kind {
        Normal,   //!< Linear statement: walk tokens [beginCi, endCi).
        Cond,     //!< One short-circuit condition atom (same range).
        ScopeEnd, //!< Synthetic: the scope running at `depth` closes.
    };
    Kind kind = Normal;
    size_t beginCi = 0;
    size_t endCi = 0;
    /** Lexical nesting depth: function-body top level = 1. A ScopeEnd
     *  with depth d releases RAII state acquired at depth >= d. */
    int depth = 0;
    int line = 0;
};

struct CfgEdge
{
    size_t to = 0;
    /** For an edge leaving a Cond atom: the atom's token range and the
     *  truth value that selects this edge. condBeginCi == SIZE_MAX
     *  marks a plain (unconditional) edge. */
    size_t condBeginCi = SIZE_MAX;
    size_t condEndCi = SIZE_MAX;
    bool condSense = true;
};

struct CfgBlock
{
    std::vector<Stmt> stmts;
    std::vector<CfgEdge> succs;
};

struct Cfg
{
    std::vector<CfgBlock> blocks;
    size_t entry = 0;
    size_t exit = 0;
    /** Blocks reachable from entry, in reverse post-order. */
    std::vector<size_t> rpo;
    /** Code-index ranges of directly or transitively nested function
     *  bodies (lambdas, local classes): analyses walking Stmt token
     *  ranges must skip these — they run later, elsewhere. */
    std::vector<std::pair<size_t, size_t>> nested;
    /** Code-index range of the body: [bodyBeginCi] is '{'. */
    size_t bodyBeginCi = 0;
    size_t bodyEndCi = 0;
};

/**
 * Build the CFG for `fn`. Never fails: structurally confusing input
 * degrades to coarser blocks (worst case one linear block), matching
 * mulint's err-toward-silence philosophy.
 */
Cfg buildCfg(const FileModel &fm, const FunctionInfo &fn);

/** Advance ci past any nested-function range covering it. Ranges are
 *  sorted by start and properly nested, so one pass suffices. */
inline size_t
skipNested(const Cfg &cfg, size_t ci)
{
    size_t out = ci;
    for (const auto &r : cfg.nested) {
        if (out >= r.first && out <= r.second)
            out = r.second + 1;
    }
    return out;
}

} // namespace mulint

#endif // MULINT_CFG_H
