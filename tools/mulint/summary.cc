/**
 * @file
 * Summary computation: direct call-site classification plus the
 * monotone fixpoint over the call graph. Witness selection is
 * deterministic — a direct primitive always wins over a callee edge,
 * and among callee edges the lowest graph index with the property is
 * chosen — so finding messages are stable across runs.
 */

#include "summary.h"

namespace mulint {

namespace {

const std::set<std::string> &
sleepCalls()
{
    static const std::set<std::string> names = {
        "sleep_for",       "sleep_until", "sleep",
        "usleep",          "nanosleep",   "sleepFor",
        "sleepForNanos",   "sleepUntilNanos",
    };
    return names;
}

const std::set<std::string> &
queueBlockingCalls()
{
    static const std::set<std::string> names = {
        "pop", "popMany", "push", "pushAll",
    };
    return names;
}

const std::set<std::string> &
chronoClocks()
{
    static const std::set<std::string> names = {
        "steady_clock", "system_clock", "high_resolution_clock",
    };
    return names;
}

} // namespace

ModuleSets
collectModuleSets(const Tree &tree)
{
    ModuleSets sets;
    for (const FileModel &fm : tree.files) {
        sets.queuesByStem[fm.stem].insert(fm.blockingQueueVars.begin(),
                                          fm.blockingQueueVars.end());
        sets.condVarsByStem[fm.stem].insert(fm.condVarVars.begin(),
                                            fm.condVarVars.end());
    }
    return sets;
}

bool
callIsRawTime(const CallSite &call,
              const std::set<std::string> &condVars, std::string *what)
{
    if (call.memberCall) {
        // clock().nowNanos() etc. are the sanctioned member form; the
        // one member call that still reads wall time is a CondVar
        // timed wait — its timeout elapses on the wall no matter what
        // Clock the surrounding code is bound to.
        if ((call.callee == "waitFor" || call.callee == "waitUntil") &&
            condVars.count(call.receiver)) {
            if (what)
                *what = call.receiver + "." + call.callee;
            return true;
        }
        return false;
    }
    static const std::set<std::string> rawFree = {
        "nowNanos", "nowMicros", "sleepForNanos", "sleepUntilNanos",
    };
    if (rawFree.count(call.callee)) {
        if (what)
            *what = call.callee;
        return true;
    }
    if (call.callee == "now" && chronoClocks().count(call.receiver)) {
        if (what)
            *what = "std::chrono::" + call.receiver + "::now";
        return true;
    }
    if (call.callee == "sleep_for" || call.callee == "sleep_until" ||
        call.callee == "usleep" || call.callee == "nanosleep") {
        if (what)
            *what = call.callee;
        return true;
    }
    return false;
}

bool
callIsBlocking(const CallSite &call,
               const std::set<std::string> &queues, std::string *what)
{
    if (!call.memberCall && sleepCalls().count(call.callee)) {
        if (what)
            *what = call.callee;
        return true;
    }
    if (call.memberCall && queueBlockingCalls().count(call.callee) &&
        queues.count(call.receiver)) {
        if (what)
            *what = call.receiver + "." + call.callee;
        return true;
    }
    // Blocking socket I/O, including the dial: connect(2) waits out
    // the handshake (or the refusal) before it returns.
    if (call.callee == "sendAll" || call.callee == "recvAll" ||
        call.callee == "connectLoopback") {
        if (what)
            *what = call.callee;
        return true;
    }
    // Synchronous RPC pumps: block until the peer answers (or, in sim
    // mode, run the event loop — either way not poller/callback-safe).
    if ((call.memberCall && call.callee == "callSync") ||
        (!call.memberCall && call.callee == "simCallSync")) {
        if (what)
            *what = call.callee;
        return true;
    }
    return false;
}

bool
callIsScheduleRegistration(const CallSite &call)
{
    // clock().schedule(...), boundClock->schedule(...),
    // engine.schedule(...): arming a callback on a Clock-like
    // dispatcher. Free functions named schedule would be ours to
    // resolve normally, so only member calls count.
    return call.memberCall && call.callee == "schedule" &&
           call.argCount >= 2;
}

Summaries
computeSummaries(const Tree &tree, const CallGraph &g)
{
    const ModuleSets sets = collectModuleSets(tree);

    Summaries summaries;
    summaries.byFn.resize(g.fns.size());

    // Seed with each function's direct facts.
    for (size_t i = 0; i < g.fns.size(); ++i) {
        const FileModel &fm = tree.files[g.fns[i].file];
        const FunctionInfo &fn = g.info(tree, i);
        Summary &s = summaries.byFn[i];
        s.ranks = fn.directRanks;
        const std::set<std::string> &queues = sets.queues(fm.stem);
        const std::set<std::string> &cvs = sets.condVars(fm.stem);
        for (const CallSite &call : fn.calls) {
            std::string what;
            if (!s.blocks && callIsBlocking(call, queues, &what)) {
                s.blocks = true;
                s.blockDirect = what;
                s.blockLine = call.line;
            }
            if (!s.touchesRealTime &&
                callIsRawTime(call, cvs, &what)) {
                s.touchesRealTime = true;
                s.timeDirect = what;
                s.timeLine = call.line;
            }
        }
    }

    // Monotone fixpoint: union callee facts into callers until stable.
    // Each property only ever flips unknown -> yes and the rank sets
    // only grow, so the loop terminates even on recursive cycles; the
    // guard is belt-and-braces against a pathological tree.
    bool changed = true;
    int guard = 0;
    while (changed && guard++ < 1000) {
        changed = false;
        for (size_t i = 0; i < g.fns.size(); ++i) {
            Summary &s = summaries.byFn[i];
            for (size_t e : g.edges[i]) {
                const Summary &callee = summaries.byFn[e];
                for (int r : callee.ranks) {
                    if (s.ranks.insert(r).second)
                        changed = true;
                }
                if (callee.blocks && !s.blocks) {
                    s.blocks = true;
                    s.blockVia = e;
                    changed = true;
                }
                if (callee.touchesRealTime && !s.touchesRealTime) {
                    s.touchesRealTime = true;
                    s.timeVia = e;
                    changed = true;
                }
            }
        }
    }

    // Re-pick witnesses deterministically: direct beats via, and among
    // via edges the lowest-indexed callee with the property wins
    // (fixpoint iteration order is an implementation detail).
    for (size_t i = 0; i < g.fns.size(); ++i) {
        Summary &s = summaries.byFn[i];
        if (s.blocks && s.blockDirect.empty()) {
            for (size_t e : g.edges[i]) {
                if (summaries.byFn[e].blocks) {
                    s.blockVia = e;
                    break;
                }
            }
        }
        if (s.touchesRealTime && s.timeDirect.empty()) {
            for (size_t e : g.edges[i]) {
                if (summaries.byFn[e].touchesRealTime) {
                    s.timeVia = e;
                    break;
                }
            }
        }
    }
    return summaries;
}

std::vector<std::string>
witnessPath(const Tree &tree, const CallGraph &g,
            const Summaries &summaries, size_t fn, bool time)
{
    std::vector<std::string> path;
    std::set<size_t> seen;
    size_t at = fn;
    for (int hops = 0; hops < 6; ++hops) {
        if (!seen.insert(at).second)
            break; // Recursive witness: stop at the cycle.
        const Summary &s = summaries.byFn[at];
        const bool has = time ? s.touchesRealTime : s.blocks;
        if (!has)
            return path;
        if (at != fn)
            path.push_back(g.info(tree, at).name);
        const std::string &direct = time ? s.timeDirect : s.blockDirect;
        const size_t via = time ? s.timeVia : s.blockVia;
        if (!direct.empty()) {
            path.push_back(direct);
            return path;
        }
        if (via == SIZE_MAX)
            return path;
        at = via;
    }
    if (!path.empty())
        path.push_back("...");
    return path;
}

std::string
witnessChain(const Tree &tree, const CallGraph &g,
             const Summaries &summaries, size_t fn, bool time)
{
    std::string chain;
    for (const std::string &hop :
         witnessPath(tree, g, summaries, fn, time)) {
        if (!chain.empty())
            chain += " -> ";
        chain += hop;
    }
    return chain;
}

} // namespace mulint
