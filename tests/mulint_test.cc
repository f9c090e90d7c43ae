/**
 * @file
 * mulint fixture-corpus and dogfooding tests. Each rule has one
 * failing and one passing fixture under tests/mulint/ pinning exactly
 * what the rule catches; the final test runs the full rule set over
 * this repository's own src/ and requires zero unsuppressed findings,
 * which is what tools/check.sh enforces on every commit.
 */

#include <chrono>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "callgraph.h"
#include "mulint.h"
#include "summary.h"

namespace {

using mulint::Finding;

std::vector<Finding>
lintFixture(const std::string &name, const std::string &rule)
{
    mulint::Options options;
    if (!rule.empty())
        options.rules.insert(rule);
    std::string error;
    std::vector<Finding> findings = mulint::analyzeTree(
        std::string(MULINT_FIXTURES_DIR) + "/" + name, options, &error);
    EXPECT_EQ(error, "") << "fixture " << name;
    return findings;
}

TEST(MulintFixtures, LockRankBad)
{
    const auto findings = lintFixture("lock_rank_bad", "lock-rank");
    ASSERT_EQ(findings.size(), 2u);
    // One direct inversion, one through a call edge.
    EXPECT_EQ(findings[0].file, "src/order.cc");
    EXPECT_EQ(findings[0].line, 11);
    EXPECT_NE(findings[0].message.find("while holding"),
              std::string::npos);
    EXPECT_EQ(findings[1].line, 24);
    EXPECT_NE(findings[1].message.find("call to 'takeInner'"),
              std::string::npos);
}

TEST(MulintFixtures, LockRankOk)
{
    EXPECT_TRUE(lintFixture("lock_rank_ok", "lock-rank").empty());
}

TEST(MulintFixtures, RawSyncBad)
{
    const auto findings = lintFixture("raw_sync_bad", "raw-sync");
    ASSERT_EQ(findings.size(), 3u);
    EXPECT_NE(findings[0].message.find("std::mutex"),
              std::string::npos);
    EXPECT_NE(findings[1].message.find("std::condition_variable"),
              std::string::npos);
    EXPECT_NE(findings[2].message.find("naked .unlock()"),
              std::string::npos);
}

TEST(MulintFixtures, RawSyncOk)
{
    // Includes a pragma-suppressed std::mutex: the pragma must absorb
    // the finding without tripping bad-pragma.
    EXPECT_TRUE(lintFixture("raw_sync_ok", "raw-sync").empty());
    EXPECT_TRUE(lintFixture("raw_sync_ok", "bad-pragma").empty());
}

TEST(MulintFixtures, GuardedBad)
{
    const auto findings = lintFixture("guarded_bad", "guarded-by");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_NE(findings[0].message.find("'Cell::mutex'"),
              std::string::npos);
}

TEST(MulintFixtures, GuardedOk)
{
    EXPECT_TRUE(lintFixture("guarded_ok", "guarded-by").empty());
}

TEST(MulintFixtures, RoleBad)
{
    const auto findings = lintFixture("role_bad", "thread-role");
    ASSERT_EQ(findings.size(), 2u);
    EXPECT_NE(findings[0].message.find("'sleepFor'"),
              std::string::npos);
    EXPECT_NE(findings[1].message.find("'taskQueue.pop'"),
              std::string::npos);
}

TEST(MulintFixtures, RoleOk)
{
    // The worker claims its own role, so its blocking calls are not
    // attributed to the poller that spawned it.
    EXPECT_TRUE(lintFixture("role_ok", "thread-role").empty());
}

TEST(MulintFixtures, PragmaBad)
{
    const auto findings = lintFixture("pragma_bad", "bad-pragma");
    ASSERT_EQ(findings.size(), 3u);
    EXPECT_NE(findings[0].message.find("malformed"), std::string::npos);
    EXPECT_NE(findings[1].message.find("unknown mulint rule"),
              std::string::npos);
    EXPECT_NE(findings[2].message.find("missing its justification"),
              std::string::npos);
}

TEST(MulintFixtures, ClockSeamBad)
{
    const auto findings = lintFixture("clock_seam_bad", "clock-seam");
    ASSERT_EQ(findings.size(), 5u);
    // Direct free-function read.
    EXPECT_EQ(findings[0].line, 25);
    EXPECT_NE(findings[0].message.find("raw time source 'nowNanos'"),
              std::string::npos);
    // std::chrono clock read.
    EXPECT_EQ(findings[1].line, 31);
    EXPECT_NE(findings[1].message.find(
                  "'std::chrono::steady_clock::now'"),
              std::string::npos);
    // Transitive reach through base/util.cc, witness chain cited.
    EXPECT_EQ(findings[2].line, 37);
    EXPECT_NE(findings[2].message.find("stampNow -> nowNanos"),
              std::string::npos);
    // CondVar timed wait.
    EXPECT_EQ(findings[3].line, 43);
    EXPECT_NE(findings[3].message.find("'wakeup.waitFor'"),
              std::string::npos);
    // Blocking callback registered on the clock.
    EXPECT_EQ(findings[4].line, 49);
    EXPECT_NE(findings[4].message.find(
                  "callback scheduled on the clock blocks (sleepFor)"),
              std::string::npos);
}

TEST(MulintFixtures, ClockSeamOk)
{
    // Member-call time reads and a non-blocking scheduled callback.
    EXPECT_TRUE(lintFixture("clock_seam_ok", "clock-seam").empty());
}

TEST(MulintFixtures, HealthClockBad)
{
    // The gray-failure layer's tracker with raw time in its outcome
    // path: both reads would smear wall time into the ejection state
    // machine and break byte-identical replay.
    const auto findings =
        lintFixture("health_clock_bad", "clock-seam");
    ASSERT_EQ(findings.size(), 2u);
    EXPECT_EQ(findings[0].line, 17);
    EXPECT_NE(findings[0].message.find("raw time source 'nowNanos'"),
              std::string::npos);
    EXPECT_EQ(findings[1].line, 24);
    EXPECT_NE(findings[1].message.find(
                  "'std::chrono::steady_clock::now'"),
              std::string::npos);
}

TEST(MulintFixtures, HealthClockOk)
{
    // Same tracker, every instant through the bound Clock member.
    EXPECT_TRUE(lintFixture("health_clock_ok", "clock-seam").empty());
}

TEST(MulintFixtures, DanglingCaptureBad)
{
    const auto findings =
        lintFixture("dangling_capture_bad", "dangling-capture");
    ASSERT_EQ(findings.size(), 4u);
    EXPECT_EQ(findings[0].line, 17);
    EXPECT_NE(findings[0].message.find("captures by reference (&hits)"),
              std::string::npos);
    // Drained on one path only: the other path still escapes, whether
    // the drain's if is braced or not.
    EXPECT_EQ(findings[1].line, 24);
    EXPECT_NE(findings[1].message.find("captures by reference (&)"),
              std::string::npos);
    EXPECT_EQ(findings[2].line, 33);
    EXPECT_NE(findings[2].message.find("captures by reference (&hits)"),
              std::string::npos);
    // The enclosing function's drain runs after the lambda returned.
    EXPECT_EQ(findings[3].line, 44);
    EXPECT_NE(findings[3].message.find("captures by reference (&)"),
              std::string::npos);
}

TEST(MulintFixtures, DanglingCaptureOk)
{
    EXPECT_TRUE(
        lintFixture("dangling_capture_ok", "dangling-capture")
            .empty());
}

// Naked unlocks on the held-lock walk never release: not on the
// fall-through past an early-return unlock, not in an unbraced if
// body, not before a later acquisition, and not in the
// unlock-then-return shape itself.
TEST(MulintFixtures, ConditionalLockBad)
{
    const auto blocking =
        lintFixture("lock_cond_bad", "lock-across-blocking");
    ASSERT_EQ(blocking.size(), 3u);
    const int lines[] = {20, 38, 48};
    for (size_t i = 0; i < blocking.size(); ++i) {
        EXPECT_EQ(blocking[i].line, lines[i]);
        EXPECT_NE(blocking[i].message.find(
                      "blocking call 'jobs.pop' while holding "
                      "'stateMutex' (rank 30)"),
                  std::string::npos);
    }

    const auto rank = lintFixture("lock_cond_bad", "lock-rank");
    ASSERT_EQ(rank.size(), 1u);
    EXPECT_EQ(rank[0].line, 29);
    EXPECT_NE(rank[0].message.find(
                  "acquires 'innerMutex' (rank 10 'inner') while "
                  "holding 'outerMutex' (rank 20 'outer')"),
              std::string::npos);
    // raw-sync flags every naked unlock written as a statement, the
    // two that are unbraced if bodies (lines 28, 37) included.
    const auto raw = lintFixture("lock_cond_bad", "raw-sync");
    ASSERT_EQ(raw.size(), 4u);
    const int raw_lines[] = {17, 28, 37, 47};
    for (size_t i = 0; i < raw.size(); ++i)
        EXPECT_EQ(raw[i].line, raw_lines[i]);
}

// A blocking call inside a MutexUnlock window, queue.h's
// unlock-then-notify shape, and a conditional nesting in rank order.
TEST(MulintFixtures, ConditionalLockOk)
{
    EXPECT_TRUE(
        lintFixture("lock_cond_ok", "lock-across-blocking").empty());
    EXPECT_TRUE(lintFixture("lock_cond_ok", "lock-rank").empty());

    // raw-sync owns the queue copy's naked unlock: its pragmas absorb
    // exactly its two std defaults and its unlock-then-notify.
    mulint::Options options;
    options.rules = {"raw-sync"};
    options.keepSuppressed = true;
    std::string error;
    const auto raw = mulint::analyzeTree(
        std::string(MULINT_FIXTURES_DIR) + "/lock_cond_ok", options,
        &error);
    EXPECT_EQ(error, "");
    ASSERT_EQ(raw.size(), 3u);
    const int lines[] = {25, 27, 38};
    for (size_t i = 0; i < raw.size(); ++i) {
        EXPECT_EQ(raw[i].line, lines[i]);
        EXPECT_TRUE(raw[i].suppressed) << "line " << lines[i];
    }
    EXPECT_NE(raw[2].message.find("unlock"), std::string::npos);

    // Every pragma there absorbs a live finding: none is stale.
    for (const Finding &f : lintFixture("lock_cond_ok", ""))
        EXPECT_NE(f.rule, "stale-pragma") << "line " << f.line;
}

TEST(MulintFixtures, LockBlockingBad)
{
    const auto findings =
        lintFixture("lock_blocking_bad", "lock-across-blocking");
    ASSERT_EQ(findings.size(), 4u);
    EXPECT_EQ(findings[0].line, 25);
    EXPECT_NE(findings[0].message.find(
                  "blocking call 'sleepFor' while holding "
                  "'stateMutex'"),
              std::string::npos);
    EXPECT_EQ(findings[1].line, 32);
    EXPECT_NE(findings[1].message.find("drainOne -> jobs.pop"),
              std::string::npos);
    EXPECT_EQ(findings[2].line, 39);
    EXPECT_NE(findings[2].message.find(
                  "'schedule' called while holding 'stateMutex'"),
              std::string::npos);
    EXPECT_EQ(findings[3].line, 46);
    EXPECT_NE(findings[3].message.find(
                  "blocking call 'connectLoopback' while holding "
                  "'stateMutex'"),
              std::string::npos);
}

TEST(MulintFixtures, LockBlockingOk)
{
    // Blocking after release, and CondVar waits (which release the
    // lock) under it.
    EXPECT_TRUE(
        lintFixture("lock_blocking_ok", "lock-across-blocking")
            .empty());
}

TEST(MulintFixtures, CounterRegistryBad)
{
    const auto findings =
        lintFixture("counter_registry_bad", "counter-registry");
    ASSERT_EQ(findings.size(), 5u);
    // Sorted by (file, line): the four DESIGN.md rows first.
    EXPECT_NE(findings[0].message.find(
                  "documented as emitted in 'src/other.cc'"),
              std::string::npos);
    EXPECT_NE(findings[1].message.find(
                  "documented as tested but no test references it"),
              std::string::npos);
    EXPECT_NE(findings[2].message.find(
                  "referenced by tests (tests/stats_test.cc)"),
              std::string::npos);
    EXPECT_NE(findings[3].message.find(
                  "'app.ghost' is never emitted"),
              std::string::npos);
    EXPECT_EQ(findings[4].file, "src/stats.cc");
    EXPECT_NE(findings[4].message.find(
                  "missing from the DESIGN.md counter table"),
              std::string::npos);
}

TEST(MulintFixtures, CounterRegistryOk)
{
    EXPECT_TRUE(
        lintFixture("counter_registry_ok", "counter-registry")
            .empty());
}

TEST(MulintFixtures, StalePragmaBad)
{
    // Full rule set: the pragma's rule (raw-sync) runs, absorbs
    // nothing, so the pragma itself is the only finding.
    const auto findings = lintFixture("stale_pragma_bad", "");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "stale-pragma");
    EXPECT_EQ(findings[0].line, 8);
    EXPECT_NE(findings[0].message.find("suppresses no finding"),
              std::string::npos);

    // With raw-sync filtered out the pragma cannot be judged stale —
    // its rule never ran, so "unused" proves nothing.
    EXPECT_TRUE(
        lintFixture("stale_pragma_bad", "stale-pragma").empty());
}

TEST(MulintFixtures, StalePragmaOk)
{
    // The pragma absorbs a live raw-sync finding, so nothing fires.
    EXPECT_TRUE(lintFixture("stale_pragma_ok", "").empty());
}

// keepSuppressed (the --json mode's backing flag) must retain absorbed
// findings, flagged, without changing what the default mode reports.
TEST(MulintOptions, KeepSuppressedRetainsAbsorbedFindings)
{
    mulint::Options options;
    options.keepSuppressed = true;
    std::string error;
    const auto findings = mulint::analyzeTree(
        std::string(MULINT_FIXTURES_DIR) + "/stale_pragma_ok", options,
        &error);
    EXPECT_EQ(error, "");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "raw-sync");
    EXPECT_TRUE(findings[0].suppressed);
}

// --------------------------------------------------------------------
// Call-graph and summary unit tests, over in-memory trees.
// --------------------------------------------------------------------

mulint::Tree
treeOf(const std::vector<std::pair<std::string, std::string>> &files)
{
    mulint::Tree tree;
    for (const auto &[rel, text] : files)
        tree.files.push_back(mulint::parseFile(rel, text));
    std::vector<Finding> sink;
    mulint::finalizeTree(tree, sink);
    return tree;
}

size_t
fnIndex(const mulint::Tree &tree, const mulint::CallGraph &g,
        const std::string &name)
{
    for (size_t i = 0; i < g.fns.size(); ++i) {
        if (g.info(tree, i).name == name)
            return i;
    }
    ADD_FAILURE() << "no function named " << name;
    return 0;
}

TEST(MulintCallGraph, SummariesPropagateAcrossHeaderImplSplit)
{
    const mulint::Tree tree = treeOf({
        {"src/util.cc", "void sleepFor(long ns);\n"
                        "void low() { sleepFor(1); }\n"},
        {"src/util.h", "void low();\n"
                       "inline void mid() { low(); }\n"},
        {"src/app.cc", "void mid();\n"
                       "void top() { mid(); }\n"},
    });
    const mulint::CallGraph g = mulint::buildCallGraph(tree);
    const mulint::Summaries summaries =
        mulint::computeSummaries(tree, g);

    // Declarations are not definitions: each name resolves uniquely
    // to its one body, so the blocking fact flows cc -> h -> cc.
    const size_t top = fnIndex(tree, g, "top");
    EXPECT_TRUE(summaries.byFn[fnIndex(tree, g, "low")].blocks);
    EXPECT_TRUE(summaries.byFn[fnIndex(tree, g, "mid")].blocks);
    EXPECT_TRUE(summaries.byFn[top].blocks);
    EXPECT_EQ(
        mulint::witnessChain(tree, g, summaries, top, /*time=*/false),
        "mid -> low -> sleepFor");
}

TEST(MulintCallGraph, IndirectCallsContributeNoEdges)
{
    const mulint::Tree tree = treeOf({
        {"src/a.cc",
         "void sleepFor(long ns);\n"
         "void blocker() { sleepFor(1); }\n"
         "void invoke(void (*fn)()) { fn(); }\n"
         "void run(std::function<void()> cb) { cb(); }\n"},
    });
    const mulint::CallGraph g = mulint::buildCallGraph(tree);
    const mulint::Summaries summaries =
        mulint::computeSummaries(tree, g);

    // A call through a pointer/std::function variable matches no
    // definition, so even with a blocking function in the same file
    // the callers' summaries stay clean (conservative: no edge, no
    // guess).
    const size_t invoke = fnIndex(tree, g, "invoke");
    const size_t run = fnIndex(tree, g, "run");
    EXPECT_TRUE(summaries.byFn[fnIndex(tree, g, "blocker")].blocks);
    EXPECT_TRUE(g.edges[invoke].empty());
    EXPECT_TRUE(g.edges[run].empty());
    EXPECT_FALSE(summaries.byFn[invoke].blocks);
    EXPECT_FALSE(summaries.byFn[run].blocks);
}

TEST(MulintCallGraph, AmbiguousNamesResolveSameModuleOnly)
{
    const mulint::Tree tree = treeOf({
        {"src/a.cc", "void sleepFor(long ns);\n"
                     "void init() { sleepFor(1); }\n"
                     "void useA() { init(); }\n"},
        {"src/b.cc", "void init() {}\n"
                     "void useB() { init(); }\n"},
    });
    const mulint::CallGraph g = mulint::buildCallGraph(tree);
    const mulint::Summaries summaries =
        mulint::computeSummaries(tree, g);

    EXPECT_TRUE(summaries.byFn[fnIndex(tree, g, "useA")].blocks);
    EXPECT_FALSE(summaries.byFn[fnIndex(tree, g, "useB")].blocks);
}

TEST(MulintCallGraph, RecursionReachesFixpoint)
{
    const mulint::Tree tree = treeOf({
        {"src/r.cc", "void sleepFor(long ns);\n"
                     "void pong();\n"
                     "void ping() { pong(); }\n"
                     "void pong() { ping(); sleepFor(2); }\n"},
    });
    const mulint::CallGraph g = mulint::buildCallGraph(tree);
    const mulint::Summaries summaries =
        mulint::computeSummaries(tree, g);

    // Mutual recursion: the fixpoint terminates and both directions
    // carry the fact; the witness walk stops at the cycle.
    const size_t ping = fnIndex(tree, g, "ping");
    EXPECT_TRUE(summaries.byFn[ping].blocks);
    EXPECT_TRUE(summaries.byFn[fnIndex(tree, g, "pong")].blocks);
    EXPECT_EQ(
        mulint::witnessChain(tree, g, summaries, ping, /*time=*/false),
        "pong -> sleepFor");
}

// Dogfooding: the repository's own tree must lint clean with every
// rule enabled. A regression here means either a real invariant
// violation was introduced or an exemption lost its pragma.
TEST(MulintDogfood, HeadIsClean)
{
    std::string error;
    const std::vector<Finding> findings =
        mulint::analyzeTree(MULINT_REPO_ROOT, mulint::Options{}, &error);
    EXPECT_EQ(error, "");
    for (const Finding &f : findings)
        ADD_FAILURE() << f.file << ":" << f.line << ": [" << f.rule
                      << "] " << f.message;
}

// The analyzer is wired into every check.sh run, so its cost must stay
// trivial. The bound is deliberately loose (sanitizer builds run this
// test too); a healthy tree analyzes in tens of milliseconds, so
// tripping it means something pathological (a runaway fixpoint, an
// accidental re-parse loop) crept in.
TEST(MulintDogfood, FullTreeAnalysisStaysFast)
{
    const auto start = std::chrono::steady_clock::now();
    std::string error;
    (void)mulint::analyzeTree(MULINT_REPO_ROOT, mulint::Options{},
                              &error);
    EXPECT_EQ(error, "");
    const auto ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_LT(ms, 60000) << "full-tree mulint analysis took " << ms
                         << " ms";
}

// The parser must see through the tree's real-world constructs: if it
// silently stopped extracting functions or mutexes, every rule would
// pass vacuously. Pin a few structural facts about HEAD.
TEST(MulintDogfood, ModelIsPopulated)
{
    std::string error;
    mulint::Options options;
    options.rules.insert("lock-rank"); // Cheap single-rule pass.
    (void)mulint::analyzeTree(MULINT_REPO_ROOT, options, &error);
    EXPECT_EQ(error, "");

    // Re-parse one known file directly and check the extracted model.
    const std::string root = MULINT_REPO_ROOT;
    std::string rel = "src/base/threading.h";
    std::ifstream in(root + "/" + rel);
    ASSERT_TRUE(in.good());
    std::ostringstream buf;
    buf << in.rdbuf();
    const mulint::FileModel fm = mulint::parseFile(rel, buf.str());
    EXPECT_GE(fm.functions.size(), 10u) << "function extraction broke";
    bool sawLatchMutex = false;
    for (const mulint::MutexDecl &decl : fm.mutexes)
        sawLatchMutex |= decl.member && decl.rankName == "latch";
    EXPECT_TRUE(sawLatchMutex) << "mutex extraction broke";
    EXPECT_TRUE(fm.annotationRefs.count("mutex"))
        << "annotation extraction broke";
}

} // namespace
