/**
 * @file
 * CFG construction. A recursive-descent statement walker over the
 * code-token stream: compound statements stay inside the current block
 * (with synthetic ScopeEnd markers), while control flow — if/else,
 * loops, switch, break/continue/return — splits blocks and wires
 * edges. Conditions are decomposed into short-circuit atoms, one block
 * per atom, with the selecting truth value recorded on each out-edge.
 *
 * The builder never fails: unmatched brackets or unrecognized shapes
 * degrade to coarser statements, and every parse step makes progress,
 * so the worst case is a linear chain of Normal statements — exactly
 * the old pre-CFG behavior.
 */

#include "cfg.h"

#include <algorithm>

namespace mulint {

size_t
Cur::codeIndexOf(size_t rawIdx) const
{
    return size_t(std::lower_bound(fm.code.begin(), fm.code.end(),
                                   rawIdx) -
                  fm.code.begin());
}

std::string
codeText(const Cur &c, size_t fromCi, size_t toCi)
{
    std::string out;
    for (size_t i = fromCi; i < toCi && i < c.size(); ++i) {
        if (!out.empty())
            out += ' ';
        out += c.tok(i).text;
    }
    return out;
}

std::string
lastIdentIn(const Cur &c, size_t fromCi, size_t toCi)
{
    std::string out;
    for (size_t i = fromCi; i < toCi && i < c.size(); ++i) {
        if (c.isIdent(i) && c.tok(i).text != "this")
            out = c.tok(i).text;
    }
    return out;
}

// --------------------------------------------------------------------
// Mutex resolution (moved from parse.cc so dataflow.cc can share it).
// --------------------------------------------------------------------

ResolvedMutex
resolveMutexDecl(const Tree &tree, const MutexDecl &decl)
{
    ResolvedMutex r;
    if (!decl.rankName.empty()) {
        auto it = tree.ranks.find(decl.rankName);
        if (it == tree.ranks.end())
            return r; // LockRank name missing from the enum: unknown.
        r.known = true;
        r.value = it->second.value;
        r.rankName = decl.rankName;
        return r;
    }
    if (decl.traced) {
        auto it = tree.ranks.find("queue");
        if (it == tree.ranks.end())
            return r;
        r.known = true;
        r.value = it->second.value;
        r.rankName = "queue";
        return r;
    }
    r.known = true; // Plain Mutex: unranked by construction.
    r.value = 0;
    r.rankName = "unranked";
    return r;
}

ResolvedMutex
lookupMutex(const MutexTable &table, const std::string &name,
            const std::string &fnScope)
{
    auto it = table.decls.find(name);
    if (it == table.decls.end())
        return ResolvedMutex{};
    const auto &candidates = it->second;
    if (candidates.size() == 1)
        return candidates[0].second;
    const ResolvedMutex *scoped = nullptr;
    for (const auto &cand : candidates) {
        if (cand.first == fnScope) {
            if (scoped)
                return ResolvedMutex{}; // Two in the same class: odd.
            scoped = &cand.second;
        }
    }
    if (scoped)
        return *scoped;
    // All candidates agreeing is still usable.
    for (size_t i = 1; i < candidates.size(); ++i) {
        if (candidates[i].second.known != candidates[0].second.known ||
            candidates[i].second.value != candidates[0].second.value)
            return ResolvedMutex{};
    }
    return candidates[0].second;
}

std::map<std::string, MutexTable>
buildMutexTables(const Tree &tree)
{
    std::map<std::string, MutexTable> modules;
    for (const FileModel &fm : tree.files) {
        MutexTable &table = modules[fm.stem];
        for (const MutexDecl &decl : fm.mutexes)
            table.decls[decl.name].emplace_back(
                decl.scope, resolveMutexDecl(tree, decl));
    }
    return modules;
}

// --------------------------------------------------------------------
// The builder.
// --------------------------------------------------------------------

namespace {

struct Builder
{
    Cur c;
    Cfg g;
    size_t cur = 0;   //!< Block currently being appended to.
    int depth = 0;    //!< Lexical depth; function-body top level = 1.
    size_t end = 0;   //!< Code index of the function's closing '}'.

    /** break / continue context of the innermost enclosing breakable
     *  construct. scopeDepth is the depth of statements directly
     *  inside the construct's body. */
    struct JumpCtx
    {
        size_t brk = SIZE_MAX;
        size_t cont = SIZE_MAX;
        int scopeDepth = 0;
        bool isLoop = false;
    };
    std::vector<JumpCtx> jumps;

    size_t
    newBlock()
    {
        g.blocks.emplace_back();
        return g.blocks.size() - 1;
    }

    void
    edge(size_t from, size_t to)
    {
        g.blocks[from].succs.push_back(CfgEdge{to});
    }

    void
    emit(Stmt::Kind k, size_t b, size_t e, int line)
    {
        if (k != Stmt::ScopeEnd && b >= e)
            return; // Empty statement ranges carry no information.
        g.blocks[cur].stmts.push_back(Stmt{k, b, e, depth, line});
    }

    void
    emitScopeEnd(int d, int line)
    {
        g.blocks[cur].stmts.push_back(Stmt{Stmt::ScopeEnd, 0, 0, d,
                                           line});
    }

    int
    lineAt(size_t ci) const
    {
        if (ci < c.size())
            return c.tok(ci).line;
        return 0;
    }

    // ----------------------------------------------------------------
    // Token scanning helpers.
    // ----------------------------------------------------------------

    /** Is ci an open bracket with a usable match inside the body? */
    bool
    jumpable(size_t ci) const
    {
        if (!(c.isPunct(ci, "(") || c.isPunct(ci, "[") ||
              c.isPunct(ci, "{")))
            return false;
        size_t m = c.match(ci);
        return m != SIZE_MAX && m > ci && m <= end;
    }

    /** First top-level occurrence of punct `s` in [b, e), SIZE_MAX if
     *  none. Matched bracket groups are skipped wholesale. */
    size_t
    findTopLevel(size_t b, size_t e, const char *s) const
    {
        for (size_t i = b; i < e && i < c.size(); ++i) {
            if (jumpable(i)) {
                i = c.match(i);
                continue;
            }
            if (c.isPunct(i, s))
                return i;
        }
        return SIZE_MAX;
    }

    /** End of a plain statement starting at ci: one past its ';', or
     *  `stop` if no top-level ';' occurs before it. */
    size_t
    plainStmtEnd(size_t ci, size_t stop) const
    {
        size_t semi = findTopLevel(ci, stop, ";");
        return semi == SIZE_MAX ? stop : semi + 1;
    }

    /** Past a parenthesized group at ci, or ci unchanged if absent. */
    size_t
    skipParens(size_t ci) const
    {
        if (c.isPunct(ci, "(") && c.match(ci) != SIZE_MAX &&
            c.match(ci) <= end)
            return c.match(ci) + 1;
        return ci;
    }

    /** Structural skip over one statement (no CFG emission). Used to
     *  locate the `while` of a do-loop before its body is parsed. */
    size_t
    skipStmt(size_t ci, size_t stop) const
    {
        if (ci >= stop)
            return stop;
        if (c.isPunct(ci, "{")) {
            size_t m = c.match(ci);
            return (m != SIZE_MAX && m < stop) ? m + 1 : ci + 1;
        }
        if (c.isIdent(ci)) {
            const std::string &s = c.tok(ci).text;
            if (s == "if") {
                size_t j = ci + 1;
                if (c.isIdent(j, "constexpr"))
                    ++j;
                j = skipStmt(skipParens(j), stop);
                if (c.isIdent(j, "else"))
                    j = skipStmt(j + 1, stop);
                return j;
            }
            if (s == "while" || s == "switch" || s == "for")
                return skipStmt(skipParens(ci + 1), stop);
            if (s == "do") {
                size_t j = skipStmt(ci + 1, stop);
                if (c.isIdent(j, "while"))
                    j = skipParens(j + 1);
                if (c.isPunct(j, ";"))
                    ++j;
                return j;
            }
            if (s == "try") {
                size_t j = skipStmt(ci + 1, stop);
                while (c.isIdent(j, "catch"))
                    j = skipStmt(skipParens(j + 1), stop);
                return j;
            }
        }
        size_t n = plainStmtEnd(ci, stop);
        return n > ci ? n : ci + 1;
    }

    // ----------------------------------------------------------------
    // Short-circuit condition decomposition.
    // ----------------------------------------------------------------

    /** Two adjacent single-char puncts forming && or ||. The lexer
     *  only fuses `::` and `->`, so these arrive as pairs. */
    bool
    isPair(size_t i, const char *ch) const
    {
        return c.isPunct(i, ch) && c.isPunct(i + 1, ch);
    }

    /**
     * Build the block chain evaluating condition [b, e); control
     * reaches `trueT` when it holds and `falseT` when it does not.
     * Returns the head block of the chain.
     */
    size_t
    buildCond(size_t b, size_t e, size_t trueT, size_t falseT)
    {
        // Strip redundant outer parens.
        while (b < e && c.isPunct(b, "(") && c.match(b) == e - 1) {
            ++b;
            --e;
        }
        // Rightmost top-level || first (lower precedence), then &&.
        size_t orAt = SIZE_MAX, andAt = SIZE_MAX;
        for (size_t i = b; i + 1 < e; ++i) {
            if (jumpable(i)) {
                i = c.match(i);
                continue;
            }
            if (isPair(i, "|")) {
                orAt = i;
                ++i;
            } else if (isPair(i, "&")) {
                // Skip unary address-of / rvalue-ref noise: a genuine
                // binary && has an operand token before it.
                if (i > b) {
                    andAt = i;
                }
                ++i;
            }
        }
        if (orAt != SIZE_MAX) {
            size_t rightHead = buildCond(orAt + 2, e, trueT, falseT);
            return buildCond(b, orAt, trueT, rightHead);
        }
        if (andAt != SIZE_MAX) {
            size_t rightHead = buildCond(andAt + 2, e, trueT, falseT);
            return buildCond(b, andAt, rightHead, falseT);
        }
        if (b < e && c.isPunct(b, "!"))
            return buildCond(b + 1, e, falseT, trueT);

        // Atom.
        size_t nb = newBlock();
        if (b >= e) { // Degenerate (macro soup): unannotated fork.
            g.blocks[nb].succs.push_back(CfgEdge{trueT});
            g.blocks[nb].succs.push_back(CfgEdge{falseT});
            return nb;
        }
        g.blocks[nb].stmts.push_back(
            Stmt{Stmt::Cond, b, e, depth, lineAt(b)});
        bool litTrue = (e == b + 1) && c.isIdent(b, "true");
        bool litFalse = (e == b + 1) && c.isIdent(b, "false");
        if (!litFalse)
            g.blocks[nb].succs.push_back(
                litTrue ? CfgEdge{trueT}
                        : CfgEdge{trueT, b, e, true});
        if (!litTrue)
            g.blocks[nb].succs.push_back(
                litFalse ? CfgEdge{falseT}
                         : CfgEdge{falseT, b, e, false});
        return nb;
    }

    // ----------------------------------------------------------------
    // Statement parsing.
    // ----------------------------------------------------------------

    /** Parse statements in [b, e) into the current block chain. */
    void
    parseRegion(size_t b, size_t e)
    {
        size_t ci = b;
        while (ci < e && ci < c.size()) {
            size_t ni = parseStmt(ci, e);
            ci = ni > ci ? ni : ci + 1;
        }
    }

    /** A single statement controlled by if/while/for: a non-compound
     *  body still opens an implicit scope. */
    size_t
    controlled(size_t ci, size_t stop)
    {
        if (c.isPunct(ci, "{"))
            return parseStmt(ci, stop);
        ++depth;
        size_t ni = parseStmt(ci, stop);
        emitScopeEnd(depth, lineAt(ni > 0 ? ni - 1 : ni));
        --depth;
        return ni;
    }

    size_t
    parseStmt(size_t ci, size_t stop)
    {
        if (ci >= stop)
            return stop;

        if (c.isPunct(ci, ";"))
            return ci + 1;

        if (c.isPunct(ci, "{")) {
            size_t m = c.match(ci);
            if (m == SIZE_MAX || m > stop)
                return ci + 1; // Malformed: swallow the brace.
            ++depth;
            parseRegion(ci + 1, m);
            emitScopeEnd(depth, lineAt(m));
            --depth;
            return m + 1;
        }

        if (!c.isIdent(ci))
            return parsePlain(ci, stop);

        const std::string &kw = c.tok(ci).text;
        if (kw == "if")
            return parseIf(ci, stop);
        if (kw == "while")
            return parseWhile(ci, stop);
        if (kw == "for")
            return parseFor(ci, stop);
        if (kw == "do")
            return parseDo(ci, stop);
        if (kw == "switch")
            return parseSwitch(ci, stop);
        if (kw == "return")
            return parseReturn(ci, stop);
        if (kw == "break" || kw == "continue")
            return parseJump(ci, stop, kw == "break");
        if (kw == "goto") {
            // Unmodeled transfer: end the path conservatively.
            size_t n = plainStmtEnd(ci, stop);
            edge(cur, g.exit);
            cur = newBlock();
            return n;
        }
        if (kw == "try")
            return parseTry(ci, stop);
        // Labels: `name:` at statement start is a no-op for us.
        if (kw != "case" && kw != "default" && c.isPunct(ci + 1, ":") &&
            !c.isPunct(ci + 2, ":"))
            return ci + 2;
        return parsePlain(ci, stop);
    }

    size_t
    parsePlain(size_t ci, size_t stop)
    {
        size_t n = plainStmtEnd(ci, stop);
        size_t e = n;
        if (e > ci && c.isPunct(e - 1, ";"))
            --e; // The ';' itself carries nothing.
        emit(Stmt::Normal, ci, e, lineAt(ci));
        return n;
    }

    size_t
    parseIf(size_t ci, size_t stop)
    {
        size_t p = ci + 1;
        if (c.isIdent(p, "constexpr"))
            ++p;
        if (!c.isPunct(p, "(") || c.match(p) == SIZE_MAX ||
            c.match(p) > stop)
            return parsePlain(ci, stop);
        size_t pc = c.match(p);
        size_t condB = p + 1, condE = pc;
        // C++17 init-statement: `if (init; cond)`.
        size_t semi = findTopLevel(p + 1, pc, ";");
        if (semi != SIZE_MAX) {
            emit(Stmt::Normal, p + 1, semi, lineAt(p + 1));
            condB = semi + 1;
        }
        size_t thenB = newBlock();
        size_t falseB = newBlock();
        size_t head = buildCond(condB, condE, thenB, falseB);
        edge(cur, head);
        cur = thenB;
        size_t ni = controlled(pc + 1, stop);
        size_t thenTail = cur;
        if (c.isIdent(ni, "else")) {
            cur = falseB;
            ni = controlled(ni + 1, stop);
            size_t after = newBlock();
            edge(thenTail, after);
            edge(cur, after);
            cur = after;
        } else {
            edge(thenTail, falseB);
            cur = falseB;
        }
        return ni;
    }

    size_t
    parseWhile(size_t ci, size_t stop)
    {
        size_t p = ci + 1;
        if (!c.isPunct(p, "(") || c.match(p) == SIZE_MAX ||
            c.match(p) > stop)
            return parsePlain(ci, stop);
        size_t pc = c.match(p);
        size_t bodyB = newBlock();
        size_t after = newBlock();
        size_t head = buildCond(p + 1, pc, bodyB, after);
        edge(cur, head);
        jumps.push_back(JumpCtx{after, head, depth + 1, true});
        cur = bodyB;
        size_t ni = controlled(pc + 1, stop);
        edge(cur, head);
        jumps.pop_back();
        cur = after;
        return ni;
    }

    size_t
    parseFor(size_t ci, size_t stop)
    {
        size_t p = ci + 1;
        if (!c.isPunct(p, "(") || c.match(p) == SIZE_MAX ||
            c.match(p) > stop)
            return parsePlain(ci, stop);
        size_t pc = c.match(p);
        size_t semi1 = findTopLevel(p + 1, pc, ";");
        size_t semi2 = semi1 == SIZE_MAX
                           ? SIZE_MAX
                           : findTopLevel(semi1 + 1, pc, ";");

        if (semi1 == SIZE_MAX || semi2 == SIZE_MAX) {
            // Range-for (or something odd): the whole header is one
            // statement re-evaluated per iteration.
            size_t head = newBlock();
            edge(cur, head);
            cur = head;
            emit(Stmt::Normal, p + 1, pc, lineAt(p + 1));
            size_t bodyB = newBlock();
            size_t after = newBlock();
            edge(head, bodyB);
            edge(head, after); // Zero iterations.
            jumps.push_back(JumpCtx{after, head, depth + 1, true});
            cur = bodyB;
            size_t ni = controlled(pc + 1, stop);
            edge(cur, head);
            jumps.pop_back();
            cur = after;
            return ni;
        }

        if (semi1 > p + 1)
            emit(Stmt::Normal, p + 1, semi1, lineAt(p + 1));
        size_t bodyB = newBlock();
        size_t after = newBlock();
        size_t incrB = newBlock();
        size_t head;
        if (semi2 > semi1 + 1) {
            head = buildCond(semi1 + 1, semi2, bodyB, after);
        } else {
            head = bodyB; // `for (;;)`: after is break-only.
        }
        edge(cur, head);
        if (pc > semi2 + 1)
            g.blocks[incrB].stmts.push_back(Stmt{
                Stmt::Normal, semi2 + 1, pc, depth, lineAt(semi2 + 1)});
        g.blocks[incrB].succs.push_back(CfgEdge{head});
        jumps.push_back(JumpCtx{after, incrB, depth + 1, true});
        cur = bodyB;
        size_t ni = controlled(pc + 1, stop);
        edge(cur, incrB);
        jumps.pop_back();
        cur = after;
        return ni;
    }

    size_t
    parseDo(size_t ci, size_t stop)
    {
        size_t bodyEnd = skipStmt(ci + 1, stop);
        if (!c.isIdent(bodyEnd, "while") ||
            !c.isPunct(bodyEnd + 1, "(") ||
            c.match(bodyEnd + 1) == SIZE_MAX ||
            c.match(bodyEnd + 1) > stop)
            return parsePlain(ci, stop);
        size_t pc = c.match(bodyEnd + 1);
        size_t bodyB = newBlock();
        size_t after = newBlock();
        size_t head = buildCond(bodyEnd + 2, pc, bodyB, after);
        edge(cur, bodyB);
        jumps.push_back(JumpCtx{after, head, depth + 1, true});
        cur = bodyB;
        controlled(ci + 1, stop);
        edge(cur, head);
        jumps.pop_back();
        cur = after;
        size_t ni = pc + 1;
        if (c.isPunct(ni, ";"))
            ++ni;
        return ni;
    }

    size_t
    parseSwitch(size_t ci, size_t stop)
    {
        size_t p = ci + 1;
        if (!c.isPunct(p, "(") || c.match(p) == SIZE_MAX ||
            c.match(p) > stop)
            return parsePlain(ci, stop);
        size_t pc = c.match(p);
        emit(Stmt::Normal, p + 1, pc, lineAt(p + 1));
        if (!c.isPunct(pc + 1, "{") || c.match(pc + 1) == SIZE_MAX ||
            c.match(pc + 1) > stop)
            return parseStmt(pc + 1, stop); // Braceless: degrade.
        size_t open = pc + 1;
        size_t close = c.match(open);

        // Top-level `case X:` / `default:` labels inside the body.
        struct Label
        {
            size_t bodyStart;
            bool isDefault;
        };
        std::vector<Label> labels;
        for (size_t i = open + 1; i < close; ++i) {
            if (jumpable(i)) {
                i = c.match(i);
                continue;
            }
            if (c.isIdent(i, "case")) {
                size_t colon = findTopLevel(i + 1, close, ":");
                if (colon == SIZE_MAX)
                    break;
                labels.push_back(Label{colon + 1, false});
                i = colon;
            } else if (c.isIdent(i, "default") &&
                       c.isPunct(i + 1, ":")) {
                labels.push_back(Label{i + 2, true});
                ++i;
            }
        }
        if (labels.empty()) {
            // No labels: treat the body as a plain compound.
            return parseStmt(open, stop);
        }

        size_t headBlock = cur;
        size_t after = newBlock();
        bool hasDefault = false;
        std::vector<size_t> segBlocks;
        for (const Label &l : labels) {
            segBlocks.push_back(newBlock());
            edge(headBlock, segBlocks.back());
            hasDefault = hasDefault || l.isDefault;
        }
        if (!hasDefault)
            edge(headBlock, after);

        jumps.push_back(JumpCtx{after, SIZE_MAX, depth + 1, false});
        ++depth;
        for (size_t k = 0; k < labels.size(); ++k) {
            size_t segEnd = close;
            if (k + 1 < labels.size()) {
                // The next label starts at its `case`/`default` token.
                segEnd = labels[k + 1].bodyStart;
                while (segEnd > labels[k].bodyStart &&
                       !(c.isIdent(segEnd - 1, "case") ||
                         c.isIdent(segEnd - 1, "default")))
                    --segEnd;
                if (segEnd > 0)
                    --segEnd; // Point at the case/default keyword.
            }
            cur = segBlocks[k];
            parseRegion(labels[k].bodyStart, segEnd);
            // Fallthrough into the next segment (or out of the switch).
            edge(cur, k + 1 < labels.size() ? segBlocks[k + 1] : after);
        }
        // Segment-local RAII state dies at the switch's '}' on every
        // path; break edges emitted their own ScopeEnd already.
        g.blocks[after].stmts.insert(
            g.blocks[after].stmts.begin(),
            Stmt{Stmt::ScopeEnd, 0, 0, depth, lineAt(close)});
        --depth;
        jumps.pop_back();
        cur = after;
        return close + 1;
    }

    size_t
    parseReturn(size_t ci, size_t stop)
    {
        size_t n = plainStmtEnd(ci, stop);
        size_t e = n;
        if (e > ci && c.isPunct(e - 1, ";"))
            --e;
        emit(Stmt::Normal, ci, e, lineAt(ci));
        edge(cur, g.exit);
        cur = newBlock(); // Unreachable continuation.
        return n;
    }

    size_t
    parseJump(size_t ci, size_t stop, bool isBreak)
    {
        const JumpCtx *ctx = nullptr;
        for (size_t j = jumps.size(); j-- > 0;) {
            if (isBreak || jumps[j].isLoop) {
                ctx = &jumps[j];
                break;
            }
        }
        size_t target =
            ctx ? (isBreak ? ctx->brk : ctx->cont) : SIZE_MAX;
        if (target == SIZE_MAX)
            return parsePlain(ci, stop); // Stray break/continue.
        // Scopes between here and the construct body close on the way.
        emitScopeEnd(ctx->scopeDepth, lineAt(ci));
        edge(cur, target);
        cur = newBlock();
        return c.isPunct(ci + 1, ";") ? ci + 2 : ci + 1;
    }

    size_t
    parseTry(size_t ci, size_t stop)
    {
        // Approximation: the try body runs, then each handler is an
        // optional successor. (The tree has no exception paths today.)
        size_t ni = parseStmt(ci + 1, stop);
        std::vector<size_t> tails;
        tails.push_back(cur);
        while (c.isIdent(ni, "catch")) {
            size_t bodyAt = skipParens(ni + 1);
            size_t catchB = newBlock();
            edge(tails.front(), catchB);
            cur = catchB;
            ni = parseStmt(bodyAt, stop);
            tails.push_back(cur);
        }
        if (tails.size() > 1) {
            size_t after = newBlock();
            for (size_t t : tails)
                edge(t, after);
            cur = after;
        }
        return ni;
    }
};

void
computeRpo(Cfg &g)
{
    std::vector<int> state(g.blocks.size(), 0); // 0 new, 1 open, 2 done
    std::vector<size_t> post;
    std::vector<std::pair<size_t, size_t>> stack; // (block, next succ)
    stack.emplace_back(g.entry, 0);
    state[g.entry] = 1;
    while (!stack.empty()) {
        auto &[b, next] = stack.back();
        if (next < g.blocks[b].succs.size()) {
            size_t to = g.blocks[b].succs[next++].to;
            if (state[to] == 0) {
                state[to] = 1;
                stack.emplace_back(to, 0);
            }
        } else {
            state[b] = 2;
            post.push_back(b);
            stack.pop_back();
        }
    }
    g.rpo.assign(post.rbegin(), post.rend());
}

} // namespace

Cfg
buildCfg(const FileModel &fm, const FunctionInfo &fn)
{
    Builder bld{Cur{fm}, Cfg{}, 0, 0, 0, {}};
    const Cur &c = bld.c;

    const size_t cb = c.codeIndexOf(fn.bodyBegin);
    const size_t ce = c.codeIndexOf(fn.bodyEnd - 1); // Closing '}'.

    bld.g.bodyBeginCi = cb;
    bld.g.bodyEndCi = ce;
    for (const FunctionInfo &other : fm.functions) {
        if (&other != &fn && other.bodyBegin > fn.bodyBegin &&
            other.bodyEnd <= fn.bodyEnd)
            bld.g.nested.emplace_back(c.codeIndexOf(other.bodyBegin),
                                      c.codeIndexOf(other.bodyEnd - 1));
    }
    std::sort(bld.g.nested.begin(), bld.g.nested.end());

    bld.g.entry = bld.newBlock();
    bld.g.exit = bld.newBlock();
    bld.cur = bld.g.entry;
    bld.depth = 1;
    bld.end = ce;

    if (cb < c.size() && ce < c.size() && cb < ce) {
        bld.parseRegion(cb + 1, ce);
        bld.emitScopeEnd(1, bld.lineAt(ce));
    }
    bld.edge(bld.cur, bld.g.exit);
    computeRpo(bld.g);
    return std::move(bld.g);
}

} // namespace mulint
