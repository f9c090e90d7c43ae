/**
 * @file
 * The mulint rule set over a finalized Tree, plus pragma application
 * and the filesystem driver. Each rule is independent and only reads
 * the model; suppression and rule selection happen centrally in
 * applyPragmas so every rule stays pragma-suppressible by construction.
 */

#include "mulint.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "callgraph.h"
#include "summary.h"

namespace mulint {

namespace {

namespace fs = std::filesystem;

/** Files allowed to touch raw primitives: the wrappers themselves and
 *  the checker that must not re-enter them. */
bool
rawSyncExempt(const std::string &rel)
{
    return rel == "src/base/threading.h" ||
           rel == "src/base/sync_debug.h" ||
           rel == "src/base/sync_debug.cc";
}

/**
 * The clock-seam domain: code that must run identically under the
 * simulated clock, so every time read and timer must go through its
 * bound musuite::Clock (DESIGN.md "Deterministic clock seam").
 */
bool
onClockSeam(const std::string &rel)
{
    return rel.rfind("src/rpc/", 0) == 0 ||
           rel.rfind("src/services/", 0) == 0 ||
           rel.rfind("src/simkernel/", 0) == 0;
}

struct Ctx
{
    const std::vector<Token> &toks;
    const std::vector<size_t> &code;
    const std::vector<size_t> &match;

    const Token &
    tok(size_t ci) const
    {
        return toks[code[ci]];
    }

    bool
    isPunct(size_t ci, const char *s) const
    {
        return ci < code.size() && tok(ci).kind == Tok::Punct &&
               tok(ci).text == s;
    }

    bool
    isIdent(size_t ci) const
    {
        return ci < code.size() && tok(ci).kind == Tok::Ident;
    }

    bool
    isIdent(size_t ci, const char *s) const
    {
        return isIdent(ci) && tok(ci).text == s;
    }
};

Ctx
ctxOf(const FileModel &fm)
{
    return Ctx{fm.toks, fm.code, fm.codeMatch};
}

/** Column of a call site's callee token (0 when unknown). */
int
callCol(const FileModel &fm, const CallSite &call)
{
    if (call.argOpen == SIZE_MAX || call.argOpen == 0 ||
        call.argOpen > fm.code.size())
        return 0;
    return fm.toks[fm.code[call.argOpen - 1]].col;
}

/**
 * Walk back over a member/scope chain (a.b->c::d) from the identifier
 * at code index `pos`; returns the code index of the chain's first
 * token. Gives up (returns SIZE_MAX) on constructs it cannot walk.
 */
size_t
chainStart(const Ctx &c, size_t pos)
{
    while (pos > 0) {
        const Token &prev = c.tok(pos - 1);
        if (prev.kind != Tok::Punct ||
            (prev.text != "." && prev.text != "->" &&
             prev.text != "::"))
            return pos;
        if (pos < 2)
            return SIZE_MAX;
        const Token &before = c.tok(pos - 2);
        if (before.kind == Tok::Ident) {
            pos -= 2;
            continue;
        }
        if (before.kind == Tok::Punct && before.text == ")" &&
            c.match[pos - 2] != SIZE_MAX) {
            // foo(...).bar(): jump over the call, then keep walking
            // from the callee identifier.
            size_t open = c.match[pos - 2];
            if (open > 0 && c.isIdent(open - 1)) {
                pos = open - 1;
                continue;
            }
        }
        return SIZE_MAX;
    }
    return pos;
}

/** Is the chain beginning at `start` the first thing in a statement?
 *  That includes the unbraced body of an if/while/for, which follows
 *  the `)` closing its condition. */
bool
atStatementStart(const Ctx &c, size_t start)
{
    if (start == 0)
        return true;
    const Token &prev = c.tok(start - 1);
    if (prev.kind == Tok::Punct &&
        (prev.text == ";" || prev.text == "{" || prev.text == "}"))
        return true;
    if (prev.kind == Tok::Ident &&
        (prev.text == "else" || prev.text == "do"))
        return true;
    if (prev.kind == Tok::Punct && prev.text == ")" &&
        c.match[start - 1] != SIZE_MAX) {
        const size_t open = c.match[start - 1];
        return open > 0 && (c.isIdent(open - 1, "if") ||
                            c.isIdent(open - 1, "while") ||
                            c.isIdent(open - 1, "for"));
    }
    return false;
}

// --------------------------------------------------------------------
// raw-sync
// --------------------------------------------------------------------

void
ruleRawSync(const Tree &tree, std::vector<Finding> &findings)
{
    static const std::set<std::string> banned = {
        "mutex",           "recursive_mutex",
        "timed_mutex",     "shared_mutex",
        "lock_guard",      "condition_variable",
        "condition_variable_any",
    };
    for (const FileModel &fm : tree.files) {
        if (rawSyncExempt(fm.rel))
            continue;
        Ctx c = ctxOf(fm);
        for (size_t i = 0; i + 2 < fm.code.size(); ++i) {
            if (c.isIdent(i, "std") && c.isPunct(i + 1, "::") &&
                c.isIdent(i + 2) && banned.count(c.tok(i + 2).text)) {
                findings.push_back(
                    {fm.rel, c.tok(i).line, "raw-sync",
                     "raw std::" + c.tok(i + 2).text +
                         "; use the annotated wrappers in "
                         "base/threading.h (Mutex/CondVar) or "
                         "ostrace/sync.h (TracedMutex)"});
                i += 2;
            }
        }
        // Naked x.lock() / x.unlock() full statements.
        for (size_t i = 0; i + 4 < fm.code.size(); ++i) {
            if (!c.isIdent(i))
                continue;
            if (!(c.isPunct(i + 1, ".") || c.isPunct(i + 1, "->")))
                continue;
            if (!c.isIdent(i + 2) || (c.tok(i + 2).text != "lock" &&
                                      c.tok(i + 2).text != "unlock"))
                continue;
            if (!c.isPunct(i + 3, "(") || !c.isPunct(i + 4, ")") ||
                !c.isPunct(i + 5, ";"))
                continue;
            const size_t start = chainStart(c, i);
            if (start == SIZE_MAX || !atStatementStart(c, start))
                continue;
            findings.push_back(
                {fm.rel, c.tok(i + 2).line, "raw-sync",
                 "naked ." + c.tok(i + 2).text +
                     "() call; use MutexLock / MutexUnlock RAII so "
                     "early returns cannot skip the pairing"});
        }
    }
}

// --------------------------------------------------------------------
// guarded-by
// --------------------------------------------------------------------

void
ruleGuardedBy(const Tree &tree, std::vector<Finding> &findings)
{
    // Annotation references are unioned per module: a header's
    // GUARDED_BY can name a mutex the .cc declares and vice versa.
    std::map<std::string, std::set<std::string>> refsByStem;
    for (const FileModel &fm : tree.files)
        refsByStem[fm.stem].insert(fm.annotationRefs.begin(),
                                   fm.annotationRefs.end());
    for (const FileModel &fm : tree.files) {
        const std::set<std::string> &refs = refsByStem[fm.stem];
        for (const MutexDecl &decl : fm.mutexes) {
            if (!decl.member)
                continue;
            if (refs.count(decl.name))
                continue;
            const std::string where =
                decl.scope.empty() ? "" : decl.scope + "::";
            findings.push_back(
                {fm.rel, decl.line, "guarded-by",
                 "mutex member '" + where + decl.name +
                     "' is never named in any GUARDED_BY/REQUIRES "
                     "annotation; annotate the data it protects"});
        }
    }
}

// --------------------------------------------------------------------
// lock-rank, cross-call half: calling into a function that (possibly
// transitively) acquires a rank <= the max rank held at the call site.
// --------------------------------------------------------------------

void
ruleLockRankCalls(const Tree &tree, const CallGraph &g,
                  const Summaries &summaries,
                  std::vector<Finding> &findings)
{
    std::map<int, std::string> valueToName;
    for (const auto &[name, value] : tree.ranks)
        valueToName[value] = name;

    for (size_t i = 0; i < g.fns.size(); ++i) {
        const FileModel &fm = tree.files[g.fns[i].file];
        const FunctionInfo &fn = g.info(tree, i);
        std::set<std::pair<int, std::string>> reported;
        for (size_t ci = 0; ci < fn.calls.size(); ++ci) {
            const CallSite &call = fn.calls[ci];
            if (call.heldRank <= 0)
                continue;
            for (size_t cand : g.resolved[i][ci]) {
                const std::set<int> &acq = summaries.byFn[cand].ranks;
                if (acq.empty())
                    continue;
                const int minAcq = *acq.begin();
                if (minAcq <= 0 || minAcq > call.heldRank)
                    continue;
                if (!reported.insert({call.line, call.callee}).second)
                    continue;
                std::string rankName = valueToName.count(minAcq)
                                           ? valueToName[minAcq]
                                           : "?";
                findings.push_back(
                    {fm.rel, call.line, "lock-rank",
                     "call to '" + call.callee +
                         "' may acquire rank " +
                         std::to_string(minAcq) + " ('" + rankName +
                         "') while holding '" + call.heldName +
                         "' (rank " + std::to_string(call.heldRank) +
                         ")",
                     callCol(fm, call),
                     {call.callee, g.info(tree, cand).name}});
            }
        }
    }
}

// --------------------------------------------------------------------
// thread-role
// --------------------------------------------------------------------

void
ruleThreadRole(const Tree &tree, const CallGraph &g,
               std::vector<Finding> &findings)
{
    static const std::set<std::string> sleepCalls = {
        "sleep_for", "sleepFor", "sleep", "usleep", "nanosleep",
        "sleep_until",
    };
    static const std::set<std::string> queueBlocking = {
        "pop", "popMany", "push", "pushAll",
    };

    std::map<std::string, std::set<std::string>> queueVarsByStem;
    for (const FileModel &fm : tree.files)
        queueVarsByStem[fm.stem].insert(fm.blockingQueueVars.begin(),
                                        fm.blockingQueueVars.end());

    // BFS from every poller root.
    std::vector<std::string> via(g.fns.size());
    std::vector<bool> visited(g.fns.size(), false);
    std::vector<size_t> work;
    for (size_t i = 0; i < g.fns.size(); ++i) {
        if (g.info(tree, i).setsPollerRole) {
            visited[i] = true;
            via[i] = g.info(tree, i).name;
            work.push_back(i);
        }
    }
    while (!work.empty()) {
        const size_t i = work.back();
        work.pop_back();
        for (size_t e : g.edges[i]) {
            const FunctionInfo &callee = g.info(tree, e);
            if (visited[e])
                continue;
            // A callee that claims a different role owns its thread.
            if (callee.setsAnyRole && !callee.setsPollerRole)
                continue;
            visited[e] = true;
            via[e] = via[i];
            work.push_back(e);
        }
    }

    for (size_t i = 0; i < g.fns.size(); ++i) {
        if (!visited[i])
            continue;
        const FileModel &fm = tree.files[g.fns[i].file];
        const FunctionInfo &fn = g.info(tree, i);
        const std::set<std::string> &queues = queueVarsByStem[fm.stem];
        for (const CallSite &call : fn.calls) {
            bool blocking = false;
            std::string what;
            if (sleepCalls.count(call.callee)) {
                blocking = true;
                what = call.callee;
            } else if (call.memberCall &&
                       queueBlocking.count(call.callee) &&
                       queues.count(call.receiver)) {
                blocking = true;
                what = call.receiver + "." + call.callee;
            } else if (call.callee == "sendAll" ||
                       call.callee == "recvAll") {
                blocking = true;
                what = call.callee;
            }
            if (!blocking)
                continue;
            findings.push_back(
                {fm.rel, call.line, "thread-role",
                 "blocking call '" + what +
                     "' is reachable from poller-role thread '" +
                     via[i] +
                     "'; pollers must stay non-blocking (use "
                     "try-variants or hand off to workers)"});
        }
    }
}

// --------------------------------------------------------------------
// clock-seam: code in src/rpc, src/services and src/simkernel must get
// all of its time through its bound musuite::Clock. Three shapes:
// direct raw-time call sites, calls into functions whose summary says
// they transitively reach a raw time source, and blocking callbacks
// registered on the clock via schedule().
// --------------------------------------------------------------------

void
ruleClockSeam(const Tree &tree, const CallGraph &g,
              const Summaries &summaries, std::vector<Finding> &findings)
{
    const ModuleSets sets = collectModuleSets(tree);

    for (size_t i = 0; i < g.fns.size(); ++i) {
        const FileModel &fm = tree.files[g.fns[i].file];
        if (!onClockSeam(fm.rel))
            continue;
        const FunctionInfo &fn = g.info(tree, i);
        const std::set<std::string> &cvs = sets.condVars(fm.stem);
        std::set<std::pair<int, std::string>> reported;
        for (size_t ci = 0; ci < fn.calls.size(); ++ci) {
            const CallSite &call = fn.calls[ci];
            std::string what;
            if (callIsRawTime(call, cvs, &what)) {
                if (reported.insert({call.line, what}).second)
                    findings.push_back(
                        {fm.rel, call.line, "clock-seam",
                         "raw time source '" + what +
                             "' on the clock seam; go through the "
                             "bound musuite::Clock (clock().nowNanos() "
                             "/ clock().schedule())",
                         callCol(fm, call)});
                continue;
            }
            for (size_t cand : g.resolved[i][ci]) {
                if (!summaries.byFn[cand].touchesRealTime)
                    continue;
                std::vector<std::string> path =
                    witnessPath(tree, g, summaries, cand, true);
                const std::string chain =
                    call.callee + " -> " +
                    witnessChain(tree, g, summaries, cand, true);
                path.insert(path.begin(), call.callee);
                if (reported.insert({call.line, call.callee}).second)
                    findings.push_back(
                        {fm.rel, call.line, "clock-seam",
                         "call to '" + call.callee +
                             "' reaches a raw time source (" + chain +
                             ") on the clock seam; thread the bound "
                             "musuite::Clock through instead",
                         callCol(fm, call), std::move(path)});
                break;
            }
            // schedule(cb, ...) with a lambda callback that blocks:
            // timer callbacks run on the clock's dispatch thread and
            // must return promptly under both Real and Sim clocks.
            if (callIsScheduleRegistration(call) &&
                call.argOpen != SIZE_MAX &&
                fm.codeMatch[call.argOpen] != SIZE_MAX) {
                const size_t open = fm.code[call.argOpen];
                const size_t close =
                    fm.code[fm.codeMatch[call.argOpen]];
                for (size_t li : fn.nestedFns) {
                    const FunctionInfo &lam = fm.functions[li];
                    if (lam.bodyBegin <= open || lam.bodyBegin >= close)
                        continue;
                    const size_t lg = g.index.at(&lam);
                    if (!summaries.byFn[lg].blocks)
                        continue;
                    const std::string witness = witnessChain(
                        tree, g, summaries, lg, /*time=*/false);
                    if (reported.insert({call.line, "schedule"}).second)
                        findings.push_back(
                            {fm.rel, call.line, "clock-seam",
                             "callback scheduled on the clock blocks "
                             "(" +
                                 witness +
                                 "); timer callbacks run on the "
                                 "clock's dispatch thread and must "
                                 "not block",
                             callCol(fm, call),
                             witnessPath(tree, g, summaries, lg,
                                         /*time=*/false)});
                }
            }
        }
    }
}

// --------------------------------------------------------------------
// lock-across-blocking: a lock held across a call that may block (or
// across a Clock::schedule registration) stalls every other thread
// contending for that lock for the full blocking duration.
// --------------------------------------------------------------------

void
ruleLockAcrossBlocking(const Tree &tree, const CallGraph &g,
                       const Summaries &summaries,
                       std::vector<Finding> &findings)
{
    const ModuleSets sets = collectModuleSets(tree);

    for (size_t i = 0; i < g.fns.size(); ++i) {
        const FileModel &fm = tree.files[g.fns[i].file];
        if (rawSyncExempt(fm.rel))
            continue;
        const FunctionInfo &fn = g.info(tree, i);
        const std::set<std::string> &queues = sets.queues(fm.stem);
        std::set<std::pair<int, std::string>> reported;
        for (size_t ci = 0; ci < fn.calls.size(); ++ci) {
            const CallSite &call = fn.calls[ci];
            if (call.heldRank <= 0)
                continue;
            std::string what;
            if (callIsBlocking(call, queues, &what)) {
                if (reported.insert({call.line, what}).second)
                    findings.push_back(
                        {fm.rel, call.line, "lock-across-blocking",
                         "blocking call '" + what +
                             "' while holding '" + call.heldName +
                             "' (rank " +
                             std::to_string(call.heldRank) +
                             "); release the lock before blocking",
                         callCol(fm, call)});
                continue;
            }
            if (callIsScheduleRegistration(call)) {
                if (reported.insert({call.line, "schedule"}).second)
                    findings.push_back(
                        {fm.rel, call.line, "lock-across-blocking",
                         "'schedule' called while holding '" +
                             call.heldName + "' (rank " +
                             std::to_string(call.heldRank) +
                             "); register timers outside the lock to "
                             "avoid lock-order cycles with the timer "
                             "thread",
                         callCol(fm, call)});
                continue;
            }
            for (size_t cand : g.resolved[i][ci]) {
                if (!summaries.byFn[cand].blocks)
                    continue;
                std::vector<std::string> path = witnessPath(
                    tree, g, summaries, cand, /*time=*/false);
                const std::string chain =
                    call.callee + " -> " +
                    witnessChain(tree, g, summaries, cand,
                                 /*time=*/false);
                path.insert(path.begin(), call.callee);
                if (reported.insert({call.line, call.callee}).second)
                    findings.push_back(
                        {fm.rel, call.line, "lock-across-blocking",
                         "call to '" + call.callee +
                             "' may block (" + chain +
                             ") while holding '" + call.heldName +
                             "' (rank " +
                             std::to_string(call.heldRank) +
                             "); release the lock first",
                         callCol(fm, call), std::move(path)});
                break;
            }
        }
    }
}

// --------------------------------------------------------------------
// dangling-capture: a lambda handed to a deferred schedule()
// registration captures by reference, and no drain of the clock
// follows the registration unconditionally — the timer can run after
// the captured locals are gone. A drain counts when it comes later in
// the same function, in the registration's brace block or an enclosing
// one, and not as the body of an unbraced if/else/loop.
// --------------------------------------------------------------------

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

/** Code index of the innermost '{' enclosing `pos` (SIZE_MAX: none). */
size_t
enclosingBrace(const Ctx &c, size_t pos)
{
    for (size_t j = pos; j-- > 0;) {
        if (c.isPunct(j, "}") && c.match[j] != SIZE_MAX)
            j = c.match[j];
        else if (c.isPunct(j, "{"))
            return j;
    }
    return SIZE_MAX;
}

/** Is the code at `pos` in the body of an unbraced if/else/loop, so
 *  that it runs on some paths only? */
bool
inUnbracedBody(const Ctx &c, size_t pos)
{
    for (size_t j = pos; j-- > 0;) {
        if (c.isPunct(j, ";") || c.isPunct(j, "{") || c.isPunct(j, "}"))
            return false;
        if (c.isIdent(j, "else") || c.isIdent(j, "do"))
            return true;
        if (c.isPunct(j, ")") && c.match[j] != SIZE_MAX) {
            j = c.match[j];
            if (c.isIdent(j - 1, "if") || c.isIdent(j - 1, "while") ||
                c.isIdent(j - 1, "for") || c.isIdent(j - 1, "switch"))
                return true;
        }
    }
    return false;
}

/** By-ref capture list of the lambda argument inside (open, close)
 *  (code indices of the call parens), e.g. "&" or "&stats, &machine".
 *  Empty when every capture is by value or there is no lambda. */
std::string
byRefCaptures(const Ctx &c, size_t open, size_t close)
{
    for (size_t i = open + 1; i < close; ++i) {
        // A lambda introducer follows '(' or ',' (argument position).
        if (!c.isPunct(i, "[") ||
            !(c.isPunct(i - 1, "(") || c.isPunct(i - 1, ",")))
            continue;
        const size_t m = c.match[i];
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

void
ruleDanglingCapture(const Tree &tree, std::vector<Finding> &findings)
{
    for (const FileModel &fm : tree.files) {
        const Ctx c = ctxOf(fm);
        for (const FunctionInfo &fn : fm.functions) {
            for (const CallSite &reg : fn.calls) {
                if (!callIsScheduleRegistration(reg) ||
                    reg.argOpen == SIZE_MAX ||
                    c.match[reg.argOpen] == SIZE_MAX)
                    continue;
                const std::string refs =
                    byRefCaptures(c, reg.argOpen, c.match[reg.argOpen]);
                const size_t regBlock = enclosingBrace(c, reg.argOpen);
                const bool drained = std::any_of(
                    fn.calls.begin(), fn.calls.end(),
                    [&](const CallSite &call) {
                        if (call.argOpen == SIZE_MAX ||
                            call.argOpen <= reg.argOpen ||
                            !isDrainCall(call))
                            return false;
                        const size_t b = enclosingBrace(c, call.argOpen);
                        return b != SIZE_MAX && b <= regBlock &&
                               c.match[b] > reg.argOpen &&
                               !inUnbracedBody(c, call.argOpen);
                    });
                if (refs.empty() || drained)
                    continue;
                findings.push_back(
                    {fm.rel, reg.line, "dangling-capture",
                     "lambda scheduled on '" + reg.receiver +
                         "' captures by reference (" + refs +
                         ") and can run after the enclosing scope "
                         "exits; capture by value or drain the clock "
                         "before returning",
                     c.tok(reg.argOpen).col});
            }
        }
    }
}

// --------------------------------------------------------------------
// counter-registry: three-way consistency between counter("...")
// emission sites in src/, the DESIGN.md counter table, and the counter
// names test sources reference.
// --------------------------------------------------------------------

struct CounterRow
{
    std::string emittedIn;
    bool tested = false;
    int line = 0;
};

void
ruleCounterRegistry(const Tree &tree,
                    const std::vector<std::string> &designLines,
                    std::vector<Finding> &findings)
{
    // Emission sites per counter name.
    std::map<std::string, std::vector<std::pair<std::string, int>>>
        emitted;
    for (const FileModel &fm : tree.files) {
        for (const auto &[name, line] : fm.counterSites)
            emitted[name].push_back({fm.rel, line});
    }

    // DESIGN.md table: "| counter | emitted in | tested |".
    int headerLine = 0;
    std::map<std::string, CounterRow> doc;
    for (size_t li = 0; li < designLines.size(); ++li) {
        const std::string &line = designLines[li];
        if (headerLine == 0) {
            if (line.find("| counter ") != std::string::npos &&
                line.find("| tested ") != std::string::npos)
                headerLine = int(li) + 1;
            continue;
        }
        std::string trimmed = line;
        size_t b = trimmed.find_first_not_of(" \t");
        if (b == std::string::npos || trimmed[b] != '|')
            break; // Table ended.
        const size_t t1 = line.find('`');
        const size_t t2 =
            t1 == std::string::npos ? t1 : line.find('`', t1 + 1);
        if (t2 == std::string::npos)
            continue; // Separator row.
        const std::string name = line.substr(t1 + 1, t2 - t1 - 1);
        const size_t bar1 = line.find('|', t2);
        if (bar1 == std::string::npos)
            continue;
        const size_t bar2 = line.find('|', bar1 + 1);
        CounterRow row;
        row.line = int(li) + 1;
        if (bar2 != std::string::npos) {
            std::string where =
                line.substr(bar1 + 1, bar2 - bar1 - 1);
            const size_t wb = where.find_first_not_of(" \t`");
            const size_t we = where.find_last_not_of(" \t`");
            if (wb != std::string::npos)
                row.emittedIn = where.substr(wb, we - wb + 1);
            row.tested =
                line.find("yes", bar2) != std::string::npos;
        }
        doc[name] = row;
    }

    if (emitted.empty() && doc.empty())
        return;
    if (headerLine == 0) {
        if (!emitted.empty() && !designLines.empty())
            findings.push_back(
                {"DESIGN.md", 1, "counter-registry",
                 "no '| counter | emitted in | tested |' table found "
                 "in DESIGN.md, but src/ emits " +
                     std::to_string(emitted.size()) +
                     " distinct counters"});
        return;
    }

    for (const auto &[name, sites] : emitted) {
        auto it = doc.find(name);
        if (it == doc.end()) {
            findings.push_back(
                {sites[0].first, sites[0].second, "counter-registry",
                 "counter '" + name +
                     "' is emitted here but missing from the "
                     "DESIGN.md counter table"});
            continue;
        }
        const CounterRow &row = it->second;
        bool pathMatches = row.emittedIn.empty();
        for (const auto &[rel, line] : sites)
            pathMatches = pathMatches || rel == row.emittedIn;
        if (!pathMatches)
            findings.push_back(
                {"DESIGN.md", row.line, "counter-registry",
                 "counter '" + name + "' documented as emitted in '" +
                     row.emittedIn + "' but it is emitted in '" +
                     sites[0].first + "'"});
        const auto tl = tree.testLiterals.find(name);
        if (row.tested && tl == tree.testLiterals.end())
            findings.push_back(
                {"DESIGN.md", row.line, "counter-registry",
                 "counter '" + name +
                     "' is documented as tested but no test "
                     "references it"});
        if (!row.tested && tl != tree.testLiterals.end())
            findings.push_back(
                {"DESIGN.md", row.line, "counter-registry",
                 "counter '" + name + "' is referenced by tests (" +
                     tl->second.first +
                     ") but documented as untested; flip its tested "
                     "column"});
    }
    for (const auto &[name, row] : doc) {
        if (!emitted.count(name))
            findings.push_back(
                {"DESIGN.md", row.line, "counter-registry",
                 "documented counter '" + name +
                     "' is never emitted in src/"});
    }
}

} // namespace

void
runRules(const Tree &tree, const std::vector<std::string> &designLines,
         const Options &options, std::vector<Finding> &findings)
{
    auto enabled = [&](const char *rule) {
        return options.rules.empty() || options.rules.count(rule);
    };
    if (enabled("raw-sync"))
        ruleRawSync(tree, findings);
    if (enabled("guarded-by"))
        ruleGuardedBy(tree, findings);
    if (enabled("lock-rank") || enabled("thread-role") ||
        enabled("clock-seam") || enabled("lock-across-blocking")) {
        const CallGraph g = buildCallGraph(tree);
        const Summaries summaries = computeSummaries(tree, g);
        if (enabled("lock-rank"))
            ruleLockRankCalls(tree, g, summaries, findings);
        if (enabled("thread-role"))
            ruleThreadRole(tree, g, findings);
        if (enabled("clock-seam"))
            ruleClockSeam(tree, g, summaries, findings);
        if (enabled("lock-across-blocking"))
            ruleLockAcrossBlocking(tree, g, summaries, findings);
    }
    if (enabled("dangling-capture"))
        ruleDanglingCapture(tree, findings);
    if (enabled("counter-registry"))
        ruleCounterRegistry(tree, designLines, findings);
}

std::vector<Finding>
applyPragmas(const Tree &tree, std::vector<Finding> findings,
             const Options &options)
{
    std::map<std::string, const FileModel *> byRel;
    for (const FileModel &fm : tree.files)
        byRel[fm.rel] = &fm;

    std::vector<Finding> kept;
    for (Finding &f : findings) {
        bool suppressed = false;
        auto it = byRel.find(f.file);
        if (it != byRel.end()) {
            for (const Pragma &p : it->second->pragmas) {
                if (p.rule == f.rule &&
                    (p.line == f.line || p.line == f.line - 1)) {
                    p.used = true;
                    suppressed = true;
                }
            }
        }
        if (!suppressed) {
            kept.push_back(std::move(f));
        } else if (options.keepSuppressed) {
            f.suppressed = true;
            kept.push_back(std::move(f));
        }
    }

    const auto ruleEnabled = [&](const std::string &rule) {
        return options.rules.empty() || options.rules.count(rule);
    };
    for (const FileModel &fm : tree.files) {
        for (const Pragma &p : fm.pragmas) {
            if (p.rule.empty()) {
                kept.push_back(
                    {fm.rel, p.line, "bad-pragma",
                     "malformed mulint pragma (expected '// mulint: "
                     "allow(<rule>): <justification>')"});
                continue;
            }
            if (!ruleNames().count(p.rule)) {
                kept.push_back({fm.rel, p.line, "bad-pragma",
                                "unknown mulint rule '" + p.rule +
                                    "' in allow pragma"});
                continue;
            }
            if (!p.justified) {
                kept.push_back(
                    {fm.rel, p.line, "bad-pragma",
                     "allow(" + p.rule +
                         ") pragma is missing its justification; "
                         "say why the exemption is sound"});
                continue;
            }
            // A well-formed pragma whose rule ran but that absorbed
            // nothing is itself a finding: the exemption it documents
            // no longer exists, so the justification text is stale.
            if (!p.used && ruleEnabled(p.rule))
                kept.push_back(
                    {fm.rel, p.line, "stale-pragma",
                     "allow(" + p.rule +
                         ") pragma suppresses no finding; the "
                         "exemption is stale — remove the pragma"});
        }
    }

    if (!options.rules.empty()) {
        kept.erase(std::remove_if(kept.begin(), kept.end(),
                                  [&](const Finding &f) {
                                      return !options.rules.count(
                                          f.rule);
                                  }),
                   kept.end());
    }

    std::sort(kept.begin(), kept.end(),
              [](const Finding &a, const Finding &b) {
                  return std::tie(a.file, a.line, a.col, a.rule,
                                  a.message) < std::tie(b.file, b.line,
                                                        b.col, b.rule,
                                                        b.message);
              });
    kept.erase(std::unique(kept.begin(), kept.end(),
                           [](const Finding &a, const Finding &b) {
                               return a.file == b.file &&
                                      a.line == b.line &&
                                      a.rule == b.rule &&
                                      a.message == b.message;
                           }),
               kept.end());
    return kept;
}

std::vector<Finding>
analyzeTree(const std::string &root, const Options &options,
            std::string *error)
{
    const fs::path rootPath(root);
    const fs::path srcPath = rootPath / "src";
    if (!fs::is_directory(srcPath)) {
        if (error)
            *error = "no src/ directory under " + root;
        return {};
    }

    std::vector<fs::path> paths;
    for (auto it = fs::recursive_directory_iterator(srcPath);
         it != fs::recursive_directory_iterator(); ++it) {
        if (!it->is_regular_file())
            continue;
        const std::string ext = it->path().extension().string();
        if (ext == ".h" || ext == ".cc")
            paths.push_back(it->path());
    }
    std::sort(paths.begin(), paths.end());

    Tree tree;
    for (const fs::path &p : paths) {
        std::ifstream in(p, std::ios::binary);
        if (!in) {
            if (error)
                *error = "cannot read " + p.string();
            return {};
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        const std::string rel =
            fs::relative(p, rootPath).generic_string();
        tree.files.push_back(parseFile(rel, buf.str()));
    }

    std::vector<Finding> findings;
    finalizeTree(tree, findings);

    // Test-reference evidence for counter-registry: string literals in
    // the flat tests/*.cc layer (the fixture corpus underneath stays
    // out — its literals describe fixtures, not this tree).
    const fs::path testsPath = rootPath / "tests";
    if (fs::is_directory(testsPath)) {
        std::vector<fs::path> testPaths;
        for (const auto &entry : fs::directory_iterator(testsPath)) {
            if (entry.is_regular_file() &&
                entry.path().extension() == ".cc")
                testPaths.push_back(entry.path());
        }
        std::sort(testPaths.begin(), testPaths.end());
        for (const fs::path &p : testPaths) {
            std::ifstream in(p, std::ios::binary);
            if (!in)
                continue;
            std::ostringstream buf;
            buf << in.rdbuf();
            const std::string rel =
                fs::relative(p, rootPath).generic_string();
            for (const Token &t : lex(buf.str())) {
                if (t.kind != Tok::Str || t.text.size() < 3 ||
                    t.text.front() != '"')
                    continue;
                const std::string name =
                    t.text.substr(1, t.text.size() - 2);
                tree.testLiterals.emplace(name,
                                          std::make_pair(rel, t.line));
            }
        }
    }

    std::vector<std::string> designLines;
    std::ifstream design(rootPath / "DESIGN.md");
    for (std::string line; std::getline(design, line);)
        designLines.push_back(line);

    runRules(tree, designLines, options, findings);
    return applyPragmas(tree, std::move(findings), options);
}

} // namespace mulint
