/**
 * @file
 * Pass 1 (parseFile): token-level extraction of pragmas, scope
 * structure, function extents, mutex/queue declarations and annotation
 * references.
 *
 * Pass 2 (finalizeTree): LockRank enum extraction, then one token walk
 * per function body that records call sites and thread-role facts and
 * keeps a brace-scoped held-lock set: it emits the intra-function
 * lock-rank findings and annotates each call site with the max rank
 * held there, which the interprocedural rules consume.
 */

#include "mulint.h"

#include <algorithm>

namespace mulint {

namespace {

const std::set<std::string> &
annotationMacros()
{
    static const std::set<std::string> macros = {
        "GUARDED_BY",      "PT_GUARDED_BY",  "REQUIRES",
        "ACQUIRE",         "RELEASE",        "TRY_ACQUIRE",
        "EXCLUDES",        "ASSERT_CAPABILITY", "RETURN_CAPABILITY",
        "ACQUIRED_BEFORE", "ACQUIRED_AFTER",
    };
    return macros;
}

const std::set<std::string> &
cppKeywords()
{
    static const std::set<std::string> kw = {
        "if",       "for",      "while",   "switch",   "return",
        "sizeof",   "catch",    "new",     "delete",   "throw",
        "do",       "else",     "try",     "case",     "default",
        "goto",     "static_assert", "alignof", "decltype",
        "static_cast", "dynamic_cast", "const_cast",
        "reinterpret_cast", "co_await", "co_return", "co_yield",
    };
    return kw;
}

bool
isQualifierIdent(const std::string &s)
{
    return s == "const" || s == "noexcept" || s == "override" ||
           s == "final" || s == "mutable" || s == "constexpr" ||
           s == "SCOPED_CAPABILITY" || s == "NO_THREAD_SAFETY_ANALYSIS";
}

std::string
trimCopy(const std::string &s)
{
    size_t b = s.find_first_not_of(" \t\r\n");
    if (b == std::string::npos)
        return "";
    size_t e = s.find_last_not_of(" \t\r\n");
    return s.substr(b, e - b + 1);
}

/** Parse mulint pragmas out of one comment token's text. */
void
scanCommentForPragma(const Token &tok, std::vector<Pragma> &out)
{
    const std::string &text = tok.text;
    size_t pos = text.find("mulint:");
    if (pos == std::string::npos)
        return;
    Pragma pragma;
    pragma.line = tok.line;
    size_t p = pos + 7;
    while (p < text.size() && std::isspace((unsigned char)text[p]))
        ++p;
    if (text.compare(p, 6, "allow(") != 0) {
        // Malformed: recorded with an empty rule, reported by
        // bad-pragma.
        out.push_back(pragma);
        return;
    }
    p += 6;
    size_t close = text.find(')', p);
    if (close == std::string::npos) {
        out.push_back(pragma);
        return;
    }
    pragma.rule = trimCopy(text.substr(p, close - p));
    std::string rest = text.substr(close + 1);
    // Strip comment-closing */ and leading separators, then demand
    // real prose: a justification is mandatory.
    size_t endc = rest.find("*/");
    if (endc != std::string::npos)
        rest = rest.substr(0, endc);
    size_t b = rest.find_first_not_of(" \t:;-—");
    rest = b == std::string::npos ? "" : trimCopy(rest.substr(b));
    pragma.justified = rest.size() >= 10;
    out.push_back(pragma);
}

struct Scope
{
    enum Kind { Namespace, Class, Enum, Function, Block } kind;
    std::string name;
    size_t openIdx;  //!< Index into `code` of the '{'.
    size_t closeIdx; //!< Matching '}' (code index), or SIZE_MAX.
};

/** Bracket-matching table over the code-token index vector. */
std::vector<size_t>
matchBrackets(const std::vector<Token> &toks,
              const std::vector<size_t> &code)
{
    std::vector<size_t> match(code.size(), SIZE_MAX);
    std::vector<size_t> paren, brace, square;
    for (size_t i = 0; i < code.size(); ++i) {
        const Token &t = toks[code[i]];
        if (t.kind != Tok::Punct)
            continue;
        if (t.text == "(") {
            paren.push_back(i);
        } else if (t.text == ")") {
            if (!paren.empty()) {
                match[paren.back()] = i;
                match[i] = paren.back();
                paren.pop_back();
            }
        } else if (t.text == "{") {
            brace.push_back(i);
        } else if (t.text == "}") {
            if (!brace.empty()) {
                match[brace.back()] = i;
                match[i] = brace.back();
                brace.pop_back();
            }
        } else if (t.text == "[") {
            square.push_back(i);
        } else if (t.text == "]") {
            if (!square.empty()) {
                match[square.back()] = i;
                match[i] = square.back();
                square.pop_back();
            }
        }
    }
    return match;
}

/** Helper bundle threaded through the pass-1 scanners. */
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

struct BraceInfo
{
    Scope::Kind kind = Scope::Block;
    std::string name;   //!< Class/namespace/function simple name.
    std::string scope;  //!< Class qualifier for out-of-class functions.
};

/**
 * Classify the '{' at code index p by scanning back through the
 * statement that introduced it.
 */
BraceInfo
classifyBrace(const Ctx &c, size_t p)
{
    BraceInfo info;
    if (p == 0)
        return info;

    // Statement start: scan back to the nearest ';', '{' or '}'.
    size_t b = p; // One past the last statement token after the loop.
    while (b > 0) {
        size_t q = b - 1;
        const Token &t = c.tok(q);
        if (t.kind == Tok::Punct &&
            (t.text == ";" || t.text == "{" || t.text == "}"))
            break;
        if (t.kind == Tok::Punct &&
            (t.text == ")" || t.text == "]") &&
            c.match[q] != SIZE_MAX) {
            b = c.match[q];
            continue;
        }
        b = q;
    }

    // Keyword-introduced scopes first.
    size_t enumAt = SIZE_MAX, classAt = SIZE_MAX, nsAt = SIZE_MAX;
    for (size_t i = b; i < p; ++i) {
        if (!c.isIdent(i))
            continue;
        const std::string &s = c.tok(i).text;
        if (s == "enum" && enumAt == SIZE_MAX)
            enumAt = i;
        else if (s == "class" || s == "struct" || s == "union")
            classAt = i; // Keep the last: template<class T> class X.
        else if (s == "namespace" && nsAt == SIZE_MAX)
            nsAt = i;
    }
    if (enumAt != SIZE_MAX) {
        info.kind = Scope::Enum;
        for (size_t i = enumAt + 1; i < p; ++i) {
            if (c.isPunct(i, ":"))
                break;
            if (c.isIdent(i) && c.tok(i).text != "class" &&
                c.tok(i).text != "struct") {
                info.name = c.tok(i).text;
                break;
            }
        }
        return info;
    }
    if (nsAt != SIZE_MAX && (classAt == SIZE_MAX || nsAt < classAt)) {
        info.kind = Scope::Namespace;
        if (c.isIdent(nsAt + 1))
            info.name = c.tok(nsAt + 1).text;
        else
            info.name = "<anon>";
        return info;
    }
    if (classAt != SIZE_MAX) {
        info.kind = Scope::Class;
        for (size_t i = classAt + 1; i < p; ++i) {
            if (c.isPunct(i, ":") || c.isPunct(i, "<"))
                break;
            if (!c.isIdent(i))
                continue;
            // Skip attribute-like macro calls: CAPABILITY("mutex").
            if (c.isPunct(i + 1, "(")) {
                if (c.match[i + 1] == SIZE_MAX)
                    break;
                i = c.match[i + 1];
                continue;
            }
            info.name = c.tok(i).text;
        }
        if (info.name.empty())
            info.kind = Scope::Block; // struct-in-expression, give up.
        return info;
    }

    // Function-definition / lambda / control-flow discrimination:
    // consume trailing qualifiers, annotation macros and trailing
    // return types backwards until we can look at a ')' or ']'.
    size_t q = p; // Examine token q-1.
    int initListHops = 0;
    while (q > b) {
        const Token &t = c.tok(q - 1);
        if (t.kind == Tok::Ident && isQualifierIdent(t.text)) {
            --q;
            continue;
        }
        if (t.kind == Tok::Punct && (t.text == "&" || t.text == "*")) {
            --q;
            continue;
        }
        if (t.kind == Tok::Ident || (t.kind == Tok::Punct &&
                                     (t.text == "::" || t.text == "<" ||
                                      t.text == ">"))) {
            // Possible trailing return type "-> T" or a stray name;
            // scan back over the type chain looking for "->".
            size_t r = q - 1;
            while (r > b) {
                const Token &u = c.tok(r - 1);
                if (u.kind == Tok::Ident ||
                    (u.kind == Tok::Punct &&
                     (u.text == "::" || u.text == "<" || u.text == ">" ||
                      u.text == "&" || u.text == "*")))
                    --r;
                else
                    break;
            }
            if (r > b && c.isPunct(r - 1, "->")) {
                q = r - 1;
                continue;
            }
            return info; // Block: bare identifier before '{'.
        }
        if (t.kind == Tok::Punct && t.text == ")") {
            const size_t close = q - 1;
            const size_t open = c.match[close];
            if (open == SIZE_MAX || open < b)
                return info;
            // Control flow?
            if (open > b && c.isIdent(open - 1)) {
                const std::string &name = c.tok(open - 1).text;
                if (name == "if" || name == "for" || name == "while" ||
                    name == "switch" || name == "catch")
                    return info;
                if (annotationMacros().count(name) ||
                    name == "noexcept") {
                    // Annotation / noexcept(...) group: skip it.
                    q = open - 1;
                    continue;
                }
                // Constructor init list: name(...) preceded by ',' or
                // ':' — hop to the real parameter list.
                if (open > b + 1 &&
                    (c.isPunct(open - 2, ",") ||
                     c.isPunct(open - 2, ":")) &&
                    initListHops < 64) {
                    ++initListHops;
                    q = open - 1;
                    // Consume the preceding ',' / ':' too; for ':' the
                    // loop will next see the parameter-list ')'.
                    --q;
                    continue;
                }
                // Function definition.
                info.kind = Scope::Function;
                info.name = c.tok(open - 1).text;
                size_t nameAt = open - 1;
                // Scope qualifier: Class :: name (possibly Class<T>).
                size_t beforeName = nameAt;
                if (nameAt > b && c.isPunct(nameAt - 1, "~"))
                    beforeName = nameAt - 1; // Destructor.
                if (beforeName > b + 1 &&
                    c.isPunct(beforeName - 1, "::") &&
                    c.isIdent(beforeName - 2))
                    info.scope = c.tok(beforeName - 2).text;
                return info;
            }
            if (open > b && c.isPunct(open - 1, "]")) {
                // Lambda with parameter list.
                info.kind = Scope::Function;
                info.name = "<lambda>";
                return info;
            }
            return info;
        }
        if (t.kind == Tok::Punct && t.text == "]") {
            // Lambda without parameter list: [...] {.
            info.kind = Scope::Function;
            info.name = "<lambda>";
            return info;
        }
        return info;
    }
    return info;
}

/** Innermost enclosing class name, if the scope stack top is a class. */
std::string
currentClass(const std::vector<Scope> &stack)
{
    if (!stack.empty() && stack.back().kind == Scope::Class)
        return stack.back().name;
    return "";
}

} // namespace

FileModel
parseFile(const std::string &rel, const std::string &content)
{
    FileModel fm;
    fm.path = rel;
    fm.rel = rel;
    size_t dot = rel.find_last_of('.');
    fm.stem = dot == std::string::npos ? rel : rel.substr(0, dot);
    fm.toks = lex(content);

    std::vector<size_t> &code = fm.code;
    code.reserve(fm.toks.size());
    for (size_t i = 0; i < fm.toks.size(); ++i) {
        const Token &t = fm.toks[i];
        if (t.kind == Tok::Comment) {
            scanCommentForPragma(t, fm.pragmas);
            continue;
        }
        if (t.kind == Tok::Pp)
            continue;
        code.push_back(i);
    }
    fm.codeMatch = matchBrackets(fm.toks, code);
    const std::vector<size_t> &match = fm.codeMatch;
    Ctx c{fm.toks, code, match};

    std::vector<Scope> stack;
    for (size_t i = 0; i < code.size(); ++i) {
        const Token &t = c.tok(i);

        if (t.kind == Tok::Punct && t.text == "{") {
            BraceInfo info = classifyBrace(c, i);
            Scope scope;
            scope.kind = info.kind;
            scope.name = info.name;
            scope.openIdx = i;
            scope.closeIdx = match[i];
            stack.push_back(scope);
            if (info.kind == Scope::Function &&
                scope.closeIdx != SIZE_MAX) {
                FunctionInfo fn;
                fn.name = info.name;
                fn.scope = info.scope;
                if (fn.scope.empty()) {
                    // Inline member: nearest enclosing class scope.
                    for (size_t s = stack.size() - 1; s-- > 0;) {
                        if (stack[s].kind == Scope::Class) {
                            fn.scope = stack[s].name;
                            break;
                        }
                        if (stack[s].kind == Scope::Function)
                            break;
                    }
                }
                fn.line = t.line;
                fn.bodyBegin = code[i];
                fn.bodyEnd = code[scope.closeIdx] + 1;
                fm.functions.push_back(fn);
            }
            continue;
        }
        if (t.kind == Tok::Punct && t.text == "}") {
            if (!stack.empty() && stack.back().closeIdx == i)
                stack.pop_back();
            continue;
        }
        if (t.kind != Tok::Ident)
            continue;

        // Annotation references: GUARDED_BY(x), REQUIRES(x), ...
        if (annotationMacros().count(t.text) && c.isPunct(i + 1, "(") &&
            match[i + 1] != SIZE_MAX) {
            for (size_t j = i + 2; j < match[i + 1]; ++j) {
                if (c.isIdent(j) && c.tok(j).text != "this")
                    fm.annotationRefs.insert(c.tok(j).text);
            }
            i = match[i + 1];
            continue;
        }

        // Mutex / TracedMutex declarations: "Mutex name {|(|;".
        if ((t.text == "Mutex" || t.text == "TracedMutex") &&
            c.isIdent(i + 1) &&
            (c.isPunct(i + 2, "{") || c.isPunct(i + 2, "(") ||
             c.isPunct(i + 2, ";"))) {
            // Exclude "class Mutex", "friend class Mutex" etc.
            bool declContext = true;
            if (i > 0 && c.isIdent(i - 1)) {
                const std::string &prev = c.tok(i - 1).text;
                if (prev == "class" || prev == "struct" ||
                    prev == "friend" || prev == "typename" ||
                    prev == "using")
                    declContext = false;
            }
            if (declContext) {
                MutexDecl decl;
                decl.name = c.tok(i + 1).text;
                decl.traced = t.text == "TracedMutex";
                decl.line = c.tok(i + 1).line;
                decl.scope = currentClass(stack);
                decl.member =
                    !stack.empty() && stack.back().kind == Scope::Class;
                if ((c.isPunct(i + 2, "{") || c.isPunct(i + 2, "(")) &&
                    match[i + 2] != SIZE_MAX) {
                    for (size_t j = i + 3; j + 2 < code.size() &&
                                           j < match[i + 2];
                         ++j) {
                        if (c.isIdent(j, "LockRank") &&
                            c.isPunct(j + 1, "::") && c.isIdent(j + 2)) {
                            decl.rankName = c.tok(j + 2).text;
                            break;
                        }
                    }
                }
                fm.mutexes.push_back(decl);
                i += 1;
                continue;
            }
        }

        // CondVar variable declarations: "CondVar name {|(|;".
        // Tracked so the summary classifiers can recognize timed waits
        // (cv.waitFor) as wall-clock reads without type information.
        if (t.text == "CondVar" && c.isIdent(i + 1) &&
            (c.isPunct(i + 2, "{") || c.isPunct(i + 2, "(") ||
             c.isPunct(i + 2, ";"))) {
            bool declContext = true;
            if (i > 0 && c.isIdent(i - 1)) {
                const std::string &prev = c.tok(i - 1).text;
                if (prev == "class" || prev == "struct" ||
                    prev == "friend" || prev == "typename" ||
                    prev == "using")
                    declContext = false;
            }
            if (declContext) {
                fm.condVarVars.insert(c.tok(i + 1).text);
                i += 1;
                continue;
            }
        }

        // counter("name") emission sites, for counter-registry.
        if (t.text == "counter" && c.isPunct(i + 1, "(") &&
            i + 2 < code.size() && c.tok(i + 2).kind == Tok::Str) {
            std::string name = c.tok(i + 2).text;
            if (name.size() >= 2 && name.front() == '"')
                name = name.substr(1, name.size() - 2);
            if (!name.empty())
                fm.counterSites.emplace_back(name, t.line);
            // Fall through: the body walk still records the call site.
        }

        // BlockingQueue variable declarations.
        if (t.text == "BlockingQueue" && c.isPunct(i + 1, "<")) {
            int depth = 1;
            size_t j = i + 2;
            while (j < code.size() && depth > 0) {
                if (c.isPunct(j, "<"))
                    ++depth;
                else if (c.isPunct(j, ">"))
                    --depth;
                ++j;
            }
            if (depth == 0 && c.isIdent(j))
                fm.blockingQueueVars.insert(c.tok(j).text);
            continue;
        }
    }

    // Attach file indices later (finalizeTree knows the position).
    return fm;
}

// ====================================================================
// Pass 2: the LockRank enum and function-body analysis.
// ====================================================================

size_t
codeIndexOf(const FileModel &fm, size_t rawIdx)
{
    return size_t(std::lower_bound(fm.code.begin(), fm.code.end(),
                                   rawIdx) -
                  fm.code.begin());
}

std::vector<size_t>
ownBody(const FileModel &fm, const FunctionInfo &fn)
{
    std::map<size_t, size_t> nested; // '{' -> '}' of each nested body.
    for (const FunctionInfo &other : fm.functions) {
        if (&other != &fn && other.bodyBegin > fn.bodyBegin &&
            other.bodyEnd <= fn.bodyEnd)
            nested.emplace(codeIndexOf(fm, other.bodyBegin),
                           codeIndexOf(fm, other.bodyEnd - 1));
    }
    std::vector<size_t> out;
    const size_t end = codeIndexOf(fm, fn.bodyEnd - 1);
    for (size_t i = codeIndexOf(fm, fn.bodyBegin) + 1; i < end; ++i) {
        auto it = nested.find(i);
        if (it != nested.end())
            i = it->second;
        else
            out.push_back(i);
    }
    return out;
}

namespace {

/** Parse `enum class LockRank { ... }` out of one file, if present. */
bool
parseRankEnum(const FileModel &fm, Tree &tree)
{
    Ctx c{fm.toks, fm.code, fm.codeMatch};
    for (size_t i = 0; i + 2 < fm.code.size(); ++i) {
        if (!(c.isIdent(i, "enum") && c.isIdent(i + 1, "class") &&
              c.isIdent(i + 2, "LockRank")))
            continue;
        size_t j = i + 3;
        while (j < fm.code.size() && !c.isPunct(j, "{"))
            ++j;
        if (j >= fm.code.size() || fm.codeMatch[j] == SIZE_MAX)
            return false;
        const size_t close = fm.codeMatch[j];
        int value = 0;
        for (size_t k = j + 1; k < close; ++k) {
            if (!c.isIdent(k))
                continue;
            const std::string name = c.tok(k).text;
            if (c.isPunct(k + 1, "=") &&
                k + 2 < close && c.tok(k + 2).kind == Tok::Number) {
                value = std::atoi(c.tok(k + 2).text.c_str());
                k += 2;
            }
            tree.ranks.emplace(name, value++);
            // Skip to the comma that ends this enumerator.
            while (k < close && !c.isPunct(k, ","))
                ++k;
        }
        return true;
    }
    return false;
}

/** A mutex name resolved against the module declaration table. */
struct ResolvedMutex
{
    bool known = false;
    int value = 0; //!< 0 = unranked (exempt from the order check).
    std::string rankName;
};

/** Per-module (file-stem) mutex declarations: name -> (class scope,
 *  resolution), possibly several classes in one module. */
using MutexTable =
    std::map<std::string,
             std::vector<std::pair<std::string, ResolvedMutex>>>;

ResolvedMutex
resolveMutexDecl(const Tree &tree, const MutexDecl &decl)
{
    ResolvedMutex r;
    if (!decl.rankName.empty()) {
        auto it = tree.ranks.find(decl.rankName);
        if (it == tree.ranks.end())
            return r; // LockRank name missing from the enum: unknown.
        r.known = true;
        r.value = it->second;
        r.rankName = decl.rankName;
        return r;
    }
    if (decl.traced) {
        auto it = tree.ranks.find("queue");
        if (it == tree.ranks.end())
            return r;
        r.known = true;
        r.value = it->second;
        r.rankName = "queue";
        return r;
    }
    r.known = true; // Plain Mutex: unranked by construction.
    r.value = 0;
    r.rankName = "unranked";
    return r;
}

/**
 * Look up `name` in the module table, preferring a declaration whose
 * class scope matches `fnScope`. Ambiguity (several declarations with
 * different resolutions and no scope match) yields unknown.
 */
ResolvedMutex
lookupMutex(const MutexTable &table, const std::string &name,
            const std::string &fnScope)
{
    auto it = table.find(name);
    if (it == table.end())
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

/** One table per file stem: a header's mutexes are visible to its .cc. */
std::map<std::string, MutexTable>
buildMutexTables(const Tree &tree)
{
    std::map<std::string, MutexTable> modules;
    for (const FileModel &fm : tree.files) {
        MutexTable &table = modules[fm.stem];
        for (const MutexDecl &decl : fm.mutexes)
            table[decl.name].emplace_back(decl.scope,
                                          resolveMutexDecl(tree, decl));
    }
    return modules;
}

/** One lock on the held-lock walk's state. */
struct HeldLock
{
    std::string mutexName; //!< Last identifier of the mutex expression.
    std::string guardVar;  //!< RAII guard variable name.
    ResolvedMutex res;
    size_t scopeClose = SIZE_MAX; //!< '}' that releases it (code index).
    /** '}' closing a MutexUnlock window over this lock; SIZE_MAX while
     *  the lock is held. */
    size_t windowClose = SIZE_MAX;
};

/**
 * Extract call sites and thread-role facts from one function body, and
 * walk its braces with a held-lock set: a `MutexLock` (or a
 * `std::unique_lock<Mutex>`-style guard) holds its mutex until the
 * brace scope it was declared in closes, and a `MutexUnlock` window
 * suspends the guard until the window's own scope closes. Each call
 * site gets the max rank held there (CallSite::heldRank), the body's
 * acquisitions go to FunctionInfo::directRanks, and same-function rank
 * inversions are appended to `findings`. A naked guard.unlock() does
 * not release: raw-sync bans that shape outside the wrapper files.
 */
void
analyzeBody(FileModel &fm, FunctionInfo &fn, const MutexTable &table,
            std::vector<Finding> &findings)
{
    Ctx c{fm.toks, fm.code, fm.codeMatch};
    const auto &code = fm.code;
    const size_t cb = codeIndexOf(fm, fn.bodyBegin);

    // Held locks keyed by the mutex expression's text; ties on rank go
    // to the smallest key, so annotations do not depend on order.
    std::map<std::string, HeldLock> held;
    std::vector<size_t> scopes{fm.codeMatch[cb]}; // Open '{' closes.

    auto checkAgainst = [&](const HeldLock &in, const std::string &key,
                            int line, int col) {
        for (const auto &[k, h] : held) {
            if (h.windowClose != SIZE_MAX)
                continue;
            if (k == key) {
                findings.push_back({fm.rel, line, "lock-rank",
                                    "recursive acquisition of '" + key +
                                        "'",
                                    col});
                return;
            }
            if (h.res.known && h.res.value > 0 && in.res.known &&
                in.res.value > 0 && h.res.value >= in.res.value)
                findings.push_back(
                    {fm.rel, line, "lock-rank",
                     "acquires '" + in.mutexName + "' (rank " +
                         std::to_string(in.res.value) + " '" +
                         in.res.rankName + "') while holding '" +
                         h.mutexName + "' (rank " +
                         std::to_string(h.res.value) + " '" +
                         h.res.rankName + "')",
                     col});
        }
    };
    // Guard `guard` over the mutex expression [from, to).
    auto acquire = [&](size_t from, size_t to, const std::string &guard,
                       const Token &at) {
        HeldLock h;
        std::string key;
        for (size_t j = from; j < to; ++j) {
            key += (key.empty() ? "" : " ") + c.tok(j).text;
            if (c.isIdent(j) && c.tok(j).text != "this")
                h.mutexName = c.tok(j).text;
        }
        h.guardVar = guard;
        h.res = lookupMutex(table, h.mutexName, fn.scope);
        h.scopeClose = scopes.back();
        checkAgainst(h, key, at.line, at.col);
        if (h.res.known && h.res.value > 0)
            fn.directRanks.insert(h.res.value);
        held[key] = std::move(h);
    };

    size_t skipTo = 0;
    for (size_t i : ownBody(fm, fn)) {
        if (i < skipTo)
            continue;
        const Token &t = c.tok(i);
        if (t.kind == Tok::Punct && t.text == "{" &&
            fm.codeMatch[i] != SIZE_MAX) {
            scopes.push_back(fm.codeMatch[i]);
            continue;
        }
        if (t.kind == Tok::Punct && t.text == "}" && scopes.size() > 1 &&
            scopes.back() == i) {
            // Scope end: its guards release, and a MutexUnlock window
            // closing here re-locks its guard.
            scopes.pop_back();
            std::erase_if(held, [&](const auto &kv) {
                return kv.second.scopeClose == i;
            });
            for (auto &[key, h] : held) {
                if (h.windowClose != i)
                    continue;
                checkAgainst(h, key, t.line, 0);
                h.windowClose = SIZE_MAX;
            }
            continue;
        }
        if (t.kind != Tok::Ident)
            continue;

        // MutexLock guard(expr) / MutexLock guard{expr}.
        if (t.text == "MutexLock" && c.isIdent(i + 1) &&
            (c.isPunct(i + 2, "(") || c.isPunct(i + 2, "{")) &&
            fm.codeMatch[i + 2] != SIZE_MAX) {
            acquire(i + 3, fm.codeMatch[i + 2], c.tok(i + 1).text, t);
            skipTo = fm.codeMatch[i + 2] + 1;
            continue;
        }

        // MutexUnlock relock(guard): suspended until the scope ends.
        if (t.text == "MutexUnlock" && c.isIdent(i + 1) &&
            (c.isPunct(i + 2, "(") || c.isPunct(i + 2, "{")) &&
            fm.codeMatch[i + 2] != SIZE_MAX) {
            const size_t close = fm.codeMatch[i + 2];
            std::string target;
            for (size_t j = i + 3; j < close; ++j) {
                if (c.isIdent(j) && c.tok(j).text != "this")
                    target = c.tok(j).text;
            }
            for (auto &[key, h] : held) {
                if (h.windowClose == SIZE_MAX &&
                    (h.guardVar == target || h.mutexName == target)) {
                    h.windowClose = scopes.back();
                    break;
                }
            }
            skipTo = close + 1;
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
            while (j < code.size() && tdepth > 0) {
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
                fm.codeMatch[j + 1] != SIZE_MAX) {
                acquire(j + 2, fm.codeMatch[j + 1], c.tok(j).text,
                        c.tok(j));
                skipTo = fm.codeMatch[j + 1] + 1;
            }
            continue;
        }

        // guard.unlock() / guard.lock(): lock ops, not call sites the
        // interprocedural rules should see (raw-sync flags them). They
        // leave the guard held: a lock is released only at its scope
        // end or inside a MutexUnlock window.
        if ((c.isPunct(i + 1, ".") || c.isPunct(i + 1, "->")) &&
            c.isIdent(i + 2) &&
            (c.tok(i + 2).text == "lock" ||
             c.tok(i + 2).text == "unlock") &&
            c.isPunct(i + 3, "(") && c.isPunct(i + 4, ")")) {
            skipTo = i + 5;
            continue;
        }

        // setCurrentThreadRole(ThreadRole::<role>).
        if (t.text == "setCurrentThreadRole" && c.isPunct(i + 1, "(")) {
            fn.setsAnyRole = true;
            if (c.isIdent(i + 2, "ThreadRole") &&
                c.isPunct(i + 3, "::") && c.isIdent(i + 4, "poller"))
                fn.setsPollerRole = true;
            skipTo = i + 2;
            continue;
        }

        // Generic call site.
        if (c.isPunct(i + 1, "(") && !cppKeywords().count(t.text) &&
            !annotationMacros().count(t.text)) {
            CallSite call;
            call.callee = t.text;
            call.line = t.line;
            call.argOpen = i + 1;
            const size_t argClose = fm.codeMatch[i + 1];
            if (argClose != SIZE_MAX && argClose > i + 2) {
                // Top-level commas; bracketed sub-expressions (nested
                // calls, lambdas, init lists) are skipped wholesale.
                int commas = 0;
                for (size_t j = i + 2; j < argClose; ++j) {
                    if ((c.isPunct(j, "(") || c.isPunct(j, "{") ||
                         c.isPunct(j, "[")) &&
                        fm.codeMatch[j] != SIZE_MAX) {
                        j = fm.codeMatch[j];
                        continue;
                    }
                    if (c.isPunct(j, ","))
                        ++commas;
                }
                call.argCount = commas + 1;
            }
            if (i > cb &&
                (c.isPunct(i - 1, ".") || c.isPunct(i - 1, "->"))) {
                call.memberCall = true;
                if (i > cb + 1 && c.isIdent(i - 2))
                    call.receiver = c.tok(i - 2).text;
            } else if (i > cb && c.isPunct(i - 1, "::")) {
                if (i > cb + 1 && c.isIdent(i - 2))
                    call.receiver = c.tok(i - 2).text;
                if (call.receiver == "std")
                    continue; // std:: free functions: never ours.
            }
            const HeldLock *top = nullptr;
            for (const auto &[key, h] : held) {
                if (h.windowClose == SIZE_MAX && h.res.known &&
                    h.res.value > 0 &&
                    (!top || h.res.value > top->res.value))
                    top = &h;
            }
            if (top) {
                call.heldRank = top->res.value;
                call.heldName = top->mutexName;
            }
            fn.calls.push_back(std::move(call));
            continue;
        }
    }
}

} // namespace

void
finalizeTree(Tree &tree, std::vector<Finding> &findings)
{
    for (size_t fi = 0; fi < tree.files.size(); ++fi) {
        for (FunctionInfo &fn : tree.files[fi].functions)
            fn.fileIndex = fi;
    }

    for (const FileModel &fm : tree.files) {
        if (parseRankEnum(fm, tree))
            break;
    }

    const std::map<std::string, MutexTable> modules =
        buildMutexTables(tree);
    static const MutexTable emptyTable;
    for (FileModel &fm : tree.files) {
        auto mit = modules.find(fm.stem);
        const MutexTable &table =
            mit == modules.end() ? emptyTable : mit->second;
        for (FunctionInfo &fn : fm.functions)
            analyzeBody(fm, fn, table, findings);

        // Record direct lambda nesting: L is directly nested in F when
        // F is the smallest enclosing function range.
        for (size_t li = 0; li < fm.functions.size(); ++li) {
            const FunctionInfo &inner = fm.functions[li];
            size_t bestFn = SIZE_MAX;
            size_t bestSpan = SIZE_MAX;
            for (size_t fi2 = 0; fi2 < fm.functions.size(); ++fi2) {
                if (fi2 == li)
                    continue;
                const FunctionInfo &outer = fm.functions[fi2];
                if (outer.bodyBegin < inner.bodyBegin &&
                    outer.bodyEnd >= inner.bodyEnd &&
                    outer.bodyEnd - outer.bodyBegin < bestSpan) {
                    bestSpan = outer.bodyEnd - outer.bodyBegin;
                    bestFn = fi2;
                }
            }
            if (bestFn != SIZE_MAX)
                fm.functions[bestFn].nestedFns.push_back(li);
        }
    }
}

} // namespace mulint
