/**
 * @file
 * The flow-sensitive analyses over the per-function CFG: path-sensitive
 * lock-sets (replacing the old linear held-lock stack), use-before-check
 * for Result values, and dangling by-reference captures in deferred
 * schedule() lambdas.
 *
 * Each analysis runs runForward() to a fixpoint and then replays the
 * transfer functions once per reachable block in RPO with reporting
 * enabled, so findings are deterministic regardless of worklist order.
 */

#include "dataflow.h"

#include <algorithm>

#include "summary.h"

namespace mulint {

namespace {

/** Iteration helper: the next token index to visit inside a statement
 *  range, hopping over nested function bodies. */
size_t
nextCi(const Cfg &cfg, size_t ci)
{
    return skipNested(cfg, ci);
}

/** Max may-held entry by rank (ties: smallest key) — the annotation
 *  the interprocedural rules consume. */
template <typename State>
const typename State::value_type *
maxHeld(const State &s)
{
    const typename State::value_type *best = nullptr;
    for (const auto &kv : s) {
        if (!kv.second.active || !kv.second.res.known ||
            kv.second.res.value <= 0)
            continue;
        if (!best || kv.second.res.value > best->second.res.value)
            best = &kv;
    }
    return best;
}

// ====================================================================
// Path-sensitive lock-sets.
// ====================================================================

struct LockVal
{
    std::string mutexName; //!< Last identifier of the mutex expression.
    std::string guardVar;  //!< RAII guard variable name ("" if none).
    ResolvedMutex res;
    int depth = 0;         //!< Stmt depth at acquisition.
    bool active = true;    //!< Held right now (false = suspended).
    bool must = true;      //!< Same status on every path reaching here.
    int suspendDepth = -1; //!< MutexUnlock window depth, -1 if manual.
};

struct LockAnalysis
{
    using State = std::map<std::string, LockVal>;

    const Cur &c;
    const Cfg &cfg;
    const MutexTable &table;
    const std::string &fnScope;

    // Reporting plumbing (null during the fixpoint).
    const std::string *rel = nullptr;
    FunctionInfo *fn = nullptr;
    std::vector<Finding> *out = nullptr;
    std::map<size_t, CallSite *> *callAt = nullptr;

    State
    boundary() const
    {
        return {};
    }

    State
    refine(const CfgEdge &, const State &s) const
    {
        return s; // Conditions do not constrain lock state.
    }

    bool
    join(State &into, const State &from) const
    {
        bool changed = false;
        for (auto &kv : into) {
            LockVal &a = kv.second;
            auto it = from.find(kv.first);
            if (it == from.end()) {
                if (a.must) {
                    a.must = false;
                    changed = true;
                }
                continue;
            }
            const LockVal &b = it->second;
            LockVal n = a;
            n.active = a.active || b.active;
            n.must = a.must && b.must && a.active == b.active;
            n.suspendDepth = std::max(a.suspendDepth, b.suspendDepth);
            n.depth = std::min(a.depth, b.depth);
            if (n.active != a.active || n.must != a.must ||
                n.suspendDepth != a.suspendDepth ||
                n.depth != a.depth) {
                a = n;
                changed = true;
            }
        }
        for (const auto &kv : from) {
            if (!into.count(kv.first)) {
                LockVal v = kv.second;
                v.must = false;
                into.emplace(kv.first, v);
                changed = true;
            }
        }
        return changed;
    }

    State
    transfer(const Cfg &g, size_t b, const State &in)
    {
        State s = in;
        for (const Stmt &st : g.blocks[b].stmts)
            apply(st, s);
        return s;
    }

    void
    checkAgainst(const State &s, const LockVal &incoming,
                 const std::string &key, int line, int col) const
    {
        if (!out)
            return;
        for (const auto &[k, h] : s) {
            if (!h.active)
                continue;
            if (k == key) {
                out->push_back({*rel, line, "lock-rank",
                                "recursive acquisition of '" + key + "'",
                                col});
                return;
            }
            if (h.res.known && h.res.value > 0 && incoming.res.known &&
                incoming.res.value > 0 &&
                h.res.value >= incoming.res.value) {
                out->push_back(
                    {*rel, line, "lock-rank",
                     "acquires '" + incoming.mutexName + "' (rank " +
                         std::to_string(incoming.res.value) + " '" +
                         incoming.res.rankName + "') while holding '" +
                         h.mutexName + "' (rank " +
                         std::to_string(h.res.value) + " '" +
                         h.res.rankName + "')" +
                         (h.must ? "" : " (held on some paths)"),
                     col});
            }
        }
    }

    void
    acquire(State &s, size_t exprFrom, size_t exprTo,
            const std::string &guardVar, int line, int col, int depth)
    {
        LockVal v;
        v.mutexName = lastIdentIn(c, exprFrom, exprTo);
        v.guardVar = guardVar;
        v.res = lookupMutex(table, v.mutexName, fnScope);
        v.depth = depth;
        const std::string key = codeText(c, exprFrom, exprTo);
        checkAgainst(s, v, key, line, col);
        if (out && v.res.known && v.res.value > 0)
            fn->directRanks.insert(v.res.value);
        s[key] = std::move(v);
    }

    void
    scopeEnd(State &s, const Stmt &st)
    {
        for (auto it = s.begin(); it != s.end();) {
            if (it->second.depth >= st.depth)
                it = s.erase(it);
            else
                ++it;
        }
        for (auto &kv : s) {
            LockVal &v = kv.second;
            if (v.active || v.suspendDepth < st.depth)
                continue;
            // A MutexUnlock window closes: the guard re-locks here.
            checkAgainst(s, v, kv.first, st.line, 0);
            v.active = true;
            v.suspendDepth = -1;
        }
    }

    void
    apply(const Stmt &st, State &s)
    {
        if (st.kind == Stmt::ScopeEnd) {
            scopeEnd(s, st);
            return;
        }
        for (size_t i = st.beginCi; i < st.endCi && i < c.size(); ++i) {
            size_t hop = nextCi(cfg, i);
            if (hop != i) {
                i = hop - 1;
                continue;
            }
            const Token &t = c.tok(i);

            if (out && t.kind == Tok::Punct && t.text == "(" && callAt) {
                auto it = callAt->find(i);
                if (it != callAt->end()) {
                    if (const auto *top = maxHeld(s)) {
                        it->second->heldRank = top->second.res.value;
                        it->second->heldName = top->second.mutexName;
                    }
                }
                continue;
            }
            if (t.kind != Tok::Ident)
                continue;

            // MutexLock guard(expr) / MutexLock guard{expr}.
            if (t.text == "MutexLock" && c.isIdent(i + 1) &&
                (c.isPunct(i + 2, "(") || c.isPunct(i + 2, "{")) &&
                c.match(i + 2) != SIZE_MAX) {
                const size_t close = c.match(i + 2);
                acquire(s, i + 3, close, c.tok(i + 1).text, t.line,
                        t.col, st.depth);
                i = close;
                continue;
            }

            // MutexUnlock relock(guard): suspend until scope end.
            if (t.text == "MutexUnlock" && c.isIdent(i + 1) &&
                (c.isPunct(i + 2, "(") || c.isPunct(i + 2, "{")) &&
                c.match(i + 2) != SIZE_MAX) {
                const size_t close = c.match(i + 2);
                const std::string target =
                    lastIdentIn(c, i + 3, close);
                for (auto &kv : s) {
                    LockVal &v = kv.second;
                    if (v.active && (v.guardVar == target ||
                                     v.mutexName == target)) {
                        v.active = false;
                        v.suspendDepth = st.depth;
                        break;
                    }
                }
                i = close;
                continue;
            }

            // std::unique_lock<T> guard(expr) and friends.
            if (t.text == "std" && c.isPunct(i + 1, "::") &&
                c.isIdent(i + 2) &&
                (c.tok(i + 2).text == "unique_lock" ||
                 c.tok(i + 2).text == "lock_guard" ||
                 c.tok(i + 2).text == "scoped_lock") &&
                c.isPunct(i + 3, "<")) {
                int tdepth = 1;
                size_t j = i + 4;
                bool wrapped = false;
                while (j < c.size() && tdepth > 0) {
                    if (c.isPunct(j, "<"))
                        ++tdepth;
                    else if (c.isPunct(j, ">"))
                        --tdepth;
                    else if (c.isIdent(j) &&
                             (c.tok(j).text == "Mutex" ||
                              c.tok(j).text == "TracedMutex"))
                        wrapped = true;
                    ++j;
                }
                if (wrapped && c.isIdent(j) && c.isPunct(j + 1, "(") &&
                    c.match(j + 1) != SIZE_MAX) {
                    const size_t close = c.match(j + 1);
                    acquire(s, j + 2, close, c.tok(j).text,
                            c.tok(j).line, c.tok(j).col, st.depth);
                    i = close;
                }
                continue;
            }

            // guard.unlock() / guard.lock() (also mutex.lock()).
            if ((c.isPunct(i + 1, ".") || c.isPunct(i + 1, "->")) &&
                c.isIdent(i + 2) &&
                (c.tok(i + 2).text == "lock" ||
                 c.tok(i + 2).text == "unlock") &&
                c.isPunct(i + 3, "(") && c.isPunct(i + 4, ")")) {
                const bool isUnlock = c.tok(i + 2).text == "unlock";
                const std::string &target = t.text;
                for (auto &kv : s) {
                    LockVal &v = kv.second;
                    if (v.guardVar != target && v.mutexName != target)
                        continue;
                    if (isUnlock && v.active) {
                        v.active = false;
                        v.suspendDepth = -1;
                        break;
                    }
                    if (!isUnlock && !v.active) {
                        checkAgainst(s, v, kv.first, t.line, t.col);
                        v.active = true;
                        v.suspendDepth = -1;
                        break;
                    }
                }
                i += 4;
                continue;
            }
        }
    }
};

} // namespace

void
runLockAnalysis(Tree &tree, std::vector<Finding> &findings)
{
    const std::map<std::string, MutexTable> modules =
        buildMutexTables(tree);
    static const MutexTable emptyTable;

    for (FileModel &fm : tree.files) {
        auto mit = modules.find(fm.stem);
        const MutexTable &table =
            mit == modules.end() ? emptyTable : mit->second;
        Cur c{fm};
        for (FunctionInfo &fn : fm.functions) {
            const Cfg cfg = buildCfg(fm, fn);
            LockAnalysis a{c, cfg, table, fn.scope};
            auto in = runForward(cfg, a);

            std::map<size_t, CallSite *> callAt;
            for (CallSite &call : fn.calls)
                callAt[call.argOpen] = &call;

            LockAnalysis rep{c, cfg, table, fn.scope, &fm.rel,
                             &fn, &findings, &callAt};
            for (size_t b : cfg.rpo) {
                if (!in[b])
                    continue;
                LockAnalysis::State s = *in[b];
                for (const Stmt &st : cfg.blocks[b].stmts)
                    rep.apply(st, s);
            }
        }
    }
}

// ====================================================================
// use-before-check: Result<T>::value()/take() where isOk() has not
// been established on the incoming path.
// ====================================================================

namespace {

enum class Chk { Unchecked, Ok, NotOk };

struct CheckAnalysis
{
    using State = std::map<std::string, Chk>;

    const Cur &c;
    const Cfg &cfg;
    const std::set<std::string> &returners;

    const std::string *rel = nullptr;
    std::vector<Finding> *out = nullptr;

    State
    boundary() const
    {
        return {};
    }

    bool
    join(State &into, const State &from) const
    {
        bool changed = false;
        for (auto &kv : into) {
            auto it = from.find(kv.first);
            Chk other =
                it == from.end() ? Chk::Unchecked : it->second;
            if (kv.second != other && kv.second != Chk::Unchecked) {
                kv.second = Chk::Unchecked;
                changed = true;
            }
        }
        for (const auto &kv : from) {
            if (!into.count(kv.first)) {
                into.emplace(kv.first, Chk::Unchecked);
                changed = true;
            }
        }
        return changed;
    }

    /** Does the atom [b, e) read exactly `var.isOk()` (or ->, or the
     *  short spelling ok())? Returns the variable name or "". */
    std::string
    atomIsOkCheck(size_t b, size_t e) const
    {
        if (e != b + 5)
            return "";
        if (!c.isIdent(b))
            return "";
        if (!(c.isPunct(b + 1, ".") || c.isPunct(b + 1, "->")))
            return "";
        if (!(c.isIdent(b + 2, "isOk") || c.isIdent(b + 2, "ok")))
            return "";
        if (!c.isPunct(b + 3, "(") || !c.isPunct(b + 4, ")"))
            return "";
        return c.tok(b).text;
    }

    State
    refine(const CfgEdge &e, const State &s) const
    {
        if (e.condBeginCi == SIZE_MAX)
            return s;
        const std::string var =
            atomIsOkCheck(e.condBeginCi, e.condEndCi);
        if (var.empty() || !s.count(var))
            return s;
        State r = s;
        r[var] = e.condSense ? Chk::Ok : Chk::NotOk;
        return r;
    }

    State
    transfer(const Cfg &g, size_t b, const State &in)
    {
        State s = in;
        for (const Stmt &st : g.blocks[b].stmts)
            apply(st, s);
        return s;
    }

    void
    apply(const Stmt &st, State &s)
    {
        if (st.kind == Stmt::ScopeEnd)
            return; // Names are cheap; scoping is not load-bearing.

        // Within one statement, an isOk() read to the left guards
        // accesses to the right (`r.isOk() ? r.value() : d`).
        std::set<std::string> stmtOk;

        for (size_t i = st.beginCi; i < st.endCi && i < c.size(); ++i) {
            size_t hop = nextCi(cfg, i);
            if (hop != i) {
                i = hop - 1;
                continue;
            }
            if (!c.isIdent(i))
                continue;
            const std::string &name = c.tok(i).text;

            // Result<...> var — a fresh unchecked Result binding.
            if (name == "Result" && c.isPunct(i + 1, "<")) {
                int d = 1;
                size_t j = i + 2;
                while (j < c.size() && d > 0) {
                    if (c.isPunct(j, "<"))
                        ++d;
                    else if (c.isPunct(j, ">"))
                        --d;
                    ++j;
                }
                while (c.isPunct(j, "&") || c.isPunct(j, "*"))
                    ++j;
                if (d == 0 && c.isIdent(j) &&
                    (c.isPunct(j + 1, "=") || c.isPunct(j + 1, "(") ||
                     c.isPunct(j + 1, "{") || c.isPunct(j + 1, ";"))) {
                    s[c.tok(j).text] = Chk::Unchecked;
                    i = j;
                }
                continue;
            }

            // auto var = <call returning Result>(...).
            if (name == "auto") {
                size_t j = i + 1;
                while (c.isPunct(j, "&") || c.isPunct(j, "*") ||
                       c.isIdent(j, "const"))
                    ++j;
                if (c.isIdent(j) && c.isPunct(j + 1, "=") &&
                    !c.isPunct(j + 2, "=")) {
                    bool fromResult = false;
                    for (size_t k = j + 2;
                         k < st.endCi && !c.isPunct(k, ";"); ++k) {
                        if (c.isIdent(k) &&
                            returners.count(c.tok(k).text) &&
                            c.isPunct(k + 1, "(")) {
                            fromResult = true;
                            break;
                        }
                    }
                    if (fromResult) {
                        s[c.tok(j).text] = Chk::Unchecked;
                        i = j + 1;
                        continue;
                    }
                }
            }

            // Assertion macros establish Ok mid-block.
            if ((name == "MUSUITE_CHECK" || name == "CHECK" ||
                 name == "ASSERT" || name == "ASSERT_TRUE" ||
                 name == "EXPECT_TRUE" || name == "DCHECK") &&
                c.isPunct(i + 1, "(") && c.match(i + 1) != SIZE_MAX) {
                const size_t close = c.match(i + 1);
                for (size_t k = i + 2; k + 4 < close; ++k) {
                    const std::string v =
                        atomIsOkCheck(k, k + 5);
                    if (!v.empty() && s.count(v)) {
                        s[v] = Chk::Ok;
                        break;
                    }
                }
                i = close;
                continue;
            }

            if (!s.count(name))
                continue;

            // Reassignment invalidates any established check.
            if (c.isPunct(i + 1, "=") && !c.isPunct(i + 2, "=") &&
                !(i > st.beginCi &&
                  (c.isPunct(i - 1, "=") || c.isPunct(i - 1, "!") ||
                   c.isPunct(i - 1, "<") || c.isPunct(i - 1, ">")))) {
                s[name] = Chk::Unchecked;
                stmtOk.erase(name);
                continue;
            }

            if (!(c.isPunct(i + 1, ".") || c.isPunct(i + 1, "->")) ||
                !c.isIdent(i + 2) || !c.isPunct(i + 3, "("))
                continue;
            const std::string &member = c.tok(i + 2).text;
            if ((member == "isOk" || member == "ok") &&
                c.isPunct(i + 4, ")")) {
                stmtOk.insert(name);
                i += 4;
                continue;
            }
            if (member != "value" && member != "take")
                continue;
            const Chk state = s[name];
            if (state == Chk::Ok || stmtOk.count(name))
                continue;
            if (out) {
                const Token &t = c.tok(i);
                std::string msg =
                    state == Chk::NotOk
                        ? "'" + name + "." + member +
                              "()' on a path where '" + name +
                              ".isOk()' is false"
                        : "'" + name + "." + member + "()' without '" +
                              name +
                              ".isOk()' established on this path";
                out->push_back(
                    {*rel, t.line, "use-before-check", msg, t.col});
            }
        }
    }
};

} // namespace

void
runUseBeforeCheck(const Tree &tree, std::vector<Finding> &findings)
{
    // Names with Result evidence, minus names that also resolve to a
    // non-Result definition (conservative: an ambiguous name is
    // never flagged).
    std::set<std::string> returners;
    std::set<std::string> conflicted;
    for (const FileModel &fm : tree.files) {
        for (const auto &[name, kind] : fm.statusDeclNames) {
            if (kind == "result")
                returners.insert(name);
        }
        for (const FunctionInfo &fn : fm.functions) {
            if (fn.returnKind == "result")
                returners.insert(fn.name);
            else if (fn.returnKind == "other" ||
                     fn.returnKind == "status")
                conflicted.insert(fn.name);
        }
    }
    for (const std::string &name : conflicted)
        returners.erase(name);

    for (const FileModel &fm : tree.files) {
        Cur c{fm};
        for (const FunctionInfo &fn : fm.functions) {
            const Cfg cfg = buildCfg(fm, fn);
            CheckAnalysis a{c, cfg, returners};
            auto in = runForward(cfg, a);
            CheckAnalysis rep{c, cfg, returners, &fm.rel, &findings};
            for (size_t b : cfg.rpo) {
                if (!in[b])
                    continue;
                CheckAnalysis::State s = *in[b];
                for (const Stmt &st : cfg.blocks[b].stmts)
                    rep.apply(st, s);
            }
        }
    }
}

// ====================================================================
// dangling-capture: by-reference lambda captures handed to a deferred
// schedule() registration, where some path reaches function exit with
// no drain of the engine in between — the classic timer-callback
// lifetime bug.
// ====================================================================

namespace {

bool
isDrainCall(const CallSite &call)
{
    static const std::set<std::string> drains = {
        "run",         "runFor",    "runUntil", "runUntilIdle",
        "drain",       "flush",     "callSync", "simCallSync",
        "cancel",      "cancelAll", "stop",     "join",
        "wait",
    };
    return drains.count(call.callee) > 0;
}

/** By-ref capture list of the lambda argument inside [open, close)
 *  (code indices of the call parens), e.g. "&" or "&stats, &machine".
 *  Empty when every capture is by value or there is no lambda. */
std::string
byRefCaptures(const Cur &c, size_t open, size_t close)
{
    for (size_t i = open + 1; i < close && i < c.size(); ++i) {
        if (!c.isPunct(i, "["))
            continue;
        // A lambda introducer follows '(' or ',' (argument position).
        if (!(c.isPunct(i - 1, "(") || c.isPunct(i - 1, ",")))
            continue;
        size_t m = c.match(i);
        if (m == SIZE_MAX || m >= close)
            continue;
        std::string refs;
        for (size_t j = i + 1; j < m; ++j) {
            if (!c.isPunct(j, "&"))
                continue;
            std::string one = "&";
            if (c.isIdent(j + 1)) {
                one += c.tok(j + 1).text;
                ++j;
            } else if (!(c.isPunct(j + 1, ",") ||
                         c.isPunct(j + 1, "]"))) {
                continue; // `&&`-noise or odd shape: not a capture.
            }
            if (!refs.empty())
                refs += ", ";
            refs += one;
        }
        if (!refs.empty())
            return refs;
    }
    return "";
}

} // namespace

void
runDanglingCapture(const Tree &tree, std::vector<Finding> &findings)
{
    for (const FileModel &fm : tree.files) {
        Cur c{fm};
        for (const FunctionInfo &fn : fm.functions) {
            // Cheap pre-filter: any by-ref schedule registration?
            std::vector<const CallSite *> regs;
            for (const CallSite &call : fn.calls) {
                if (callIsScheduleRegistration(call) &&
                    call.argOpen != SIZE_MAX &&
                    c.match(call.argOpen) != SIZE_MAX)
                    regs.push_back(&call);
            }
            if (regs.empty())
                continue;

            const Cfg cfg = buildCfg(fm, fn);

            // Block-level drain positions: (block, stmt index) pairs.
            auto stmtHasDrain = [&](const Stmt &st) {
                if (st.kind == Stmt::ScopeEnd)
                    return false;
                for (const CallSite &call : fn.calls) {
                    if (call.argOpen == SIZE_MAX)
                        continue;
                    if (call.argOpen >= st.beginCi &&
                        call.argOpen < st.endCi && isDrainCall(call))
                        return true;
                }
                return false;
            };

            const size_t n = cfg.blocks.size();
            std::vector<bool> blockDrains(n, false);
            for (size_t b = 0; b < n; ++b) {
                for (const Stmt &st : cfg.blocks[b].stmts)
                    blockDrains[b] = blockDrains[b] || stmtHasDrain(st);
            }

            // unsafeFromStart[b]: some drain-free path from the start
            // of b to exit. Least fixpoint of an OR system.
            std::vector<bool> unsafe(n, false);
            bool changed = true;
            size_t guard = n + 2;
            while (changed && guard-- > 0) {
                changed = false;
                for (size_t ri = cfg.rpo.size(); ri-- > 0;) {
                    size_t b = cfg.rpo[ri];
                    bool atEnd = b == cfg.exit;
                    for (const CfgEdge &e : cfg.blocks[b].succs)
                        atEnd = atEnd || unsafe[e.to];
                    bool v = !blockDrains[b] && atEnd;
                    if (v != unsafe[b]) {
                        unsafe[b] = v;
                        changed = true;
                    }
                }
            }

            auto unsafeAfter = [&](size_t regOpenCi) {
                for (size_t b : cfg.rpo) {
                    for (size_t si = 0;
                         si < cfg.blocks[b].stmts.size(); ++si) {
                        const Stmt &st = cfg.blocks[b].stmts[si];
                        if (st.kind == Stmt::ScopeEnd ||
                            regOpenCi < st.beginCi ||
                            regOpenCi >= st.endCi)
                            continue;
                        // Drain later in this block (incl. later in
                        // this statement — conservative per-stmt)?
                        for (size_t sj = si + 1;
                             sj < cfg.blocks[b].stmts.size(); ++sj) {
                            if (stmtHasDrain(cfg.blocks[b].stmts[sj]))
                                return false;
                        }
                        bool atEnd = b == cfg.exit;
                        for (const CfgEdge &e : cfg.blocks[b].succs)
                            atEnd = atEnd || unsafe[e.to];
                        return atEnd;
                    }
                }
                return false; // Unreachable registration: stay silent.
            };

            for (const CallSite *call : regs) {
                const std::string refs = byRefCaptures(
                    c, call->argOpen, c.match(call->argOpen));
                if (refs.empty())
                    continue;
                if (!unsafeAfter(call->argOpen))
                    continue;
                const Token &t = c.tok(call->argOpen);
                findings.push_back(
                    {fm.rel, call->line, "dangling-capture",
                     "lambda scheduled on '" + call->receiver +
                         "' captures by reference (" + refs +
                         ") and can run after the enclosing scope "
                         "exits; capture by value or drain the clock "
                         "before returning",
                     t.col});
            }
        }
    }
}

} // namespace mulint
