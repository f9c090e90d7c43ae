/**
 * @file
 * mulint CLI. Exit status 0 = clean, 1 = findings, 2 = usage/IO error,
 * 3 = --budget-ms exceeded.
 *
 *   mulint [--root DIR] [--rule NAME]... [--list-rules]
 *          [--json PATH] [--budget-ms N]
 *
 * Findings print one per line as `path:line: [rule] message`, the
 * format tools/check.sh and editors both understand. --json addition-
 * ally writes every finding — including pragma-suppressed ones, with a
 * "suppressed" flag, plus column and interprocedural witness chain —
 * as a JSON array to PATH ("-" = stdout), so the gate can archive the
 * full picture while the exit code still reflects only live findings.
 * --budget-ms fails the run if the whole analysis takes longer,
 * pinning mulint's always-on cost.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "mulint.h"

namespace {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (char ch : s) {
        switch (ch) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(ch) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", ch);
                out += buf;
            } else {
                out += ch;
            }
        }
    }
    return out;
}

bool
writeJson(const std::string &path,
          const std::vector<mulint::Finding> &findings)
{
    std::FILE *out = path == "-" ? stdout : std::fopen(path.c_str(), "w");
    if (!out)
        return false;
    std::fprintf(out, "[\n");
    for (size_t i = 0; i < findings.size(); ++i) {
        const mulint::Finding &f = findings[i];
        std::fprintf(out,
                     "  {\"file\": \"%s\", \"line\": %d, "
                     "\"col\": %d, \"rule\": \"%s\", "
                     "\"message\": \"%s\", \"witness\": [",
                     jsonEscape(f.file).c_str(), f.line, f.col,
                     jsonEscape(f.rule).c_str(),
                     jsonEscape(f.message).c_str());
        for (size_t w = 0; w < f.witness.size(); ++w)
            std::fprintf(out, "%s\"%s\"", w == 0 ? "" : ", ",
                         jsonEscape(f.witness[w]).c_str());
        std::fprintf(out, "], \"suppressed\": %s}%s\n",
                     f.suppressed ? "true" : "false",
                     i + 1 < findings.size() ? "," : "");
    }
    std::fprintf(out, "]\n");
    if (out != stdout)
        std::fclose(out);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string root = ".";
    std::string jsonPath;
    long budgetMs = 0;
    mulint::Options options;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--root") == 0 && i + 1 < argc) {
            root = argv[++i];
        } else if (std::strcmp(arg, "--rule") == 0 && i + 1 < argc) {
            const std::string rule = argv[++i];
            if (!mulint::ruleNames().count(rule)) {
                std::fprintf(stderr, "mulint: unknown rule '%s'\n",
                             rule.c_str());
                return 2;
            }
            options.rules.insert(rule);
        } else if (std::strcmp(arg, "--json") == 0 && i + 1 < argc) {
            jsonPath = argv[++i];
            options.keepSuppressed = true;
        } else if (std::strcmp(arg, "--budget-ms") == 0 &&
                   i + 1 < argc) {
            budgetMs = std::atol(argv[++i]);
            if (budgetMs <= 0) {
                std::fprintf(stderr,
                             "mulint: --budget-ms needs a positive "
                             "integer\n");
                return 2;
            }
        } else if (std::strcmp(arg, "--list-rules") == 0) {
            for (const std::string &rule : mulint::ruleNames())
                std::printf("%s\n", rule.c_str());
            return 0;
        } else if (std::strcmp(arg, "--help") == 0 ||
                   std::strcmp(arg, "-h") == 0) {
            std::printf(
                "usage: mulint [--root DIR] [--rule NAME]... "
                "[--list-rules] [--json PATH]\n"
                "              [--budget-ms N]\n"
                "Lints DIR/src/**/*.{h,cc} (plus DIR/DESIGN.md) for "
                "murpc concurrency and\nstatus invariants. Suppress "
                "individual findings with\n"
                "  // mulint: allow(<rule>): <justification>\n");
            return 0;
        } else {
            std::fprintf(stderr, "mulint: unknown argument '%s'\n",
                         arg);
            return 2;
        }
    }

    const auto started = std::chrono::steady_clock::now();
    std::string error;
    const std::vector<mulint::Finding> findings =
        mulint::analyzeTree(root, options, &error);
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - started)
            .count();
    if (!error.empty()) {
        std::fprintf(stderr, "mulint: %s\n", error.c_str());
        return 2;
    }

    if (!jsonPath.empty() && !writeJson(jsonPath, findings)) {
        std::fprintf(stderr, "mulint: cannot write %s\n",
                     jsonPath.c_str());
        return 2;
    }

    size_t live = 0;
    for (const mulint::Finding &f : findings) {
        if (f.suppressed)
            continue;
        ++live;
        std::printf("%s:%d: [%s] %s\n", f.file.c_str(), f.line,
                    f.rule.c_str(), f.message.c_str());
    }
    if (live != 0) {
        std::fprintf(stderr, "mulint: %zu finding%s\n", live,
                     live == 1 ? "" : "s");
        return 1;
    }
    if (budgetMs != 0 && elapsed > budgetMs) {
        std::fprintf(stderr,
                     "mulint: analysis took %lld ms, over the "
                     "--budget-ms %ld budget\n",
                     static_cast<long long>(elapsed), budgetMs);
        return 3;
    }
    return 0;
}
