/**
 * @file
 * Data model shared by mulint's parser and rules: per-file facts
 * extracted from the token stream (pragmas, mutex declarations,
 * annotation references, function extents) and the finding type.
 *
 * Everything here is an approximation built from lexical structure —
 * mulint has no type information. The parser errs toward "unknown"
 * (which rules skip) rather than guessing, so findings stay precise at
 * the cost of some coverage; the fixture corpus in tests/mulint pins
 * what each rule is expected to catch.
 */

#ifndef MULINT_MODEL_H
#define MULINT_MODEL_H

#include <map>
#include <set>
#include <string>
#include <vector>

#include "lexer.h"

namespace mulint {

/** One `// mulint: allow(<rule>): justification` comment. */
struct Pragma
{
    int line = 0;
    std::string rule;
    bool justified = false; //!< Has a non-trivial justification text.
    mutable bool used = false;
};

/** A Mutex / TracedMutex variable declaration. */
struct MutexDecl
{
    std::string name;
    std::string scope;    //!< Enclosing class name ("" at file scope).
    bool member = false;  //!< Declared directly inside a class/struct.
    std::string rankName; //!< LockRank enumerator ("" = type default).
    bool traced = false;  //!< TracedMutex (defaults to LockRank::queue).
    int line = 0;
};

/** A call site inside one function. */
struct CallSite
{
    std::string callee; //!< Simple (unqualified) name.
    bool memberCall = false; //!< Written as x.f(...) or x->f(...).
    std::string receiver;    //!< Last identifier of the receiver chain.
    int line = 0;
    int heldRank = 0;        //!< Max known rank held at the call (0 = none).
    std::string heldName;    //!< Mutex name for heldRank's acquisition.
    size_t argOpen = SIZE_MAX; //!< Code index of '(' (SIZE_MAX: unknown).
    int argCount = 0;          //!< Top-level comma count + 1; 0 if empty.
};

/** One function (or lambda) definition's extracted facts. */
struct FunctionInfo
{
    std::string name;  //!< Simple name; "<lambda>" for lambdas.
    std::string scope; //!< Class qualifier when written Class::name.
    int line = 0;
    size_t fileIndex = 0; //!< Index into Tree::files.
    size_t bodyBegin = 0; //!< Token index of the opening '{'.
    size_t bodyEnd = 0;   //!< Token index one past the closing '}'.

    // Filled by the body analysis pass:
    std::vector<CallSite> calls;
    std::set<int> directRanks;    //!< Rank values acquired in the body.
    bool setsPollerRole = false;
    bool setsAnyRole = false; //!< Claims any thread role (thread body).
    /** Directly nested lambdas / local functions (indices into the
     *  same file's functions); they run on the defining thread unless
     *  they claim a role of their own. */
    std::vector<size_t> nestedFns;
};

/** Facts for a single source file. */
struct FileModel
{
    std::string path; //!< Path as given (absolute or root-relative).
    std::string rel;  //!< Root-relative path for reporting/exemptions.
    std::string stem; //!< rel without extension: module grouping key.
    std::vector<Token> toks;
    std::vector<size_t> code;      //!< Indices of non-comment/pp tokens.
    std::vector<size_t> codeMatch; //!< Bracket matching over `code`.
    std::vector<Pragma> pragmas;
    std::vector<MutexDecl> mutexes;
    std::set<std::string> annotationRefs; //!< Names inside GUARDED_BY etc.
    std::set<std::string> blockingQueueVars;
    std::set<std::string> condVarVars; //!< CondVar variable declarations.
    std::vector<FunctionInfo> functions;
    /** counter("name") emission sites: (counter name, line). */
    std::vector<std::pair<std::string, int>> counterSites;
};

struct Finding
{
    std::string file;
    int line = 0;
    std::string rule;
    std::string message;
    /** 1-based column of the offending token (0 = whole line, e.g.
     *  DESIGN.md table rows). */
    int col = 0;
    /** Interprocedural witness chain, outermost call first, ending at
     *  the primitive that grounds the property (e.g. ["drainOne",
     *  "jobs.pop"]). Empty for intraprocedural findings. Serialized
     *  into --json so archived findings diff cleanly. */
    std::vector<std::string> witness;
    /** Absorbed by an allow pragma. Only present in the output when
     *  Options::keepSuppressed is set (the --json mode); the human
     *  mode drops suppressed findings entirely. */
    bool suppressed = false;

    Finding() = default;
    Finding(std::string file_, int line_, std::string rule_,
            std::string message_, int col_ = 0,
            std::vector<std::string> witness_ = {})
        : file(std::move(file_)), line(line_), rule(std::move(rule_)),
          message(std::move(message_)), col(col_),
          witness(std::move(witness_))
    {
    }
};

/** The whole analyzed tree plus cross-file derived tables. */
struct Tree
{
    std::vector<FileModel> files;
    std::map<std::string, int> ranks; //!< LockRank enumerator -> value.
    /**
     * String literals appearing in the test sources (tests/ *.cc, flat
     * — the fixture corpus underneath is not scanned): literal text ->
     * first (test file rel, line) mentioning it. counter-registry uses
     * this as "a test references this counter name" evidence.
     */
    std::map<std::string, std::pair<std::string, int>> testLiterals;
};

/** Rule identifiers, also the pragma vocabulary. */
inline const std::set<std::string> &
ruleNames()
{
    static const std::set<std::string> names = {
        "lock-rank",  "raw-sync",   "guarded-by",
        "thread-role", "bad-pragma", "clock-seam",
        "lock-across-blocking", "counter-registry", "stale-pragma",
        "dangling-capture",
    };
    return names;
}

} // namespace mulint

#endif // MULINT_MODEL_H
