/**
 * @file
 * Tests of the experiment harness: every service deploys and answers
 * over TCP, open-loop windows produce fully populated reports (syscall
 * counts, futex/HITM events, OS-overhead histograms), and fault
 * injection via killLeaf behaves.
 */

#include <gtest/gtest.h>

#include "harness/deployment.h"
#include "harness/experiment.h"
#include "ostrace/sync.h"
#include "services/router/proto.h"

namespace musuite {
namespace {

/** Small-scale options so a full deployment builds in milliseconds. */
DeploymentOptions
tinyOptions()
{
    DeploymentOptions options;
    options.leafShards = 2;
    options.routerDefaultShards = false; // 2-way Router too.
    options.gmm.numVectors = 600;
    options.gmm.dimension = 24;
    options.gmm.clusters = 8;
    options.corpus.numDocuments = 1200;
    options.corpus.vocabulary = 1500;
    options.corpus.meanDocLength = 40;
    options.ratings.users = 60;
    options.ratings.items = 50;
    options.ratings.meanRatingsPerUser = 8;
    options.kv.numKeys = 4000;
    options.prepopulateKeys = 1000;
    return options;
}

class DeploymentTest : public ::testing::TestWithParam<ServiceKind>
{};

TEST_P(DeploymentTest, DeploysAndAnswersQueries)
{
    auto deployment =
        ServiceDeployment::create(GetParam(), tinyOptions());
    ASSERT_NE(deployment, nullptr);
    EXPECT_EQ(deployment->kind(), GetParam());

    rpc::RpcClient client(deployment->midTierPort());
    Rng rng(42);
    for (int q = 0; q < 20; ++q) {
        auto result =
            client.callSync(deployment->frontEndMethod(),
                            deployment->sampleRequestBody(rng));
        ASSERT_TRUE(result.isOk())
            << serviceName(GetParam()) << ": "
            << result.status().toString();
        EXPECT_TRUE(deployment->validateResponse(result.payload()));
    }
}

TEST_P(DeploymentTest, OpenLoopWindowPopulatesReport)
{
    auto deployment =
        ServiceDeployment::create(GetParam(), tinyOptions());

    WindowOptions window;
    window.qps = 300;
    window.durationNs = 400'000'000;
    window.seed = 7;
    const WindowReport report = runOpenLoopWindow(*deployment, window);

    EXPECT_GT(report.load.completed, 50u);
    EXPECT_EQ(report.load.errors, 0u)
        << "error rate " << report.load.errorRate();

    // The blocking/dispatch design must show futex traffic (the
    // paper's dominant syscall) and epoll waits.
    EXPECT_GT(report.syscalls[size_t(Sys::Futex)], 0u);
    EXPECT_GT(report.syscalls[size_t(Sys::EpollPwait)], 0u);
    EXPECT_GT(report.syscalls[size_t(Sys::Sendmsg)], 0u);
    EXPECT_GT(report.syscalls[size_t(Sys::Recvmsg)], 0u);

    // Wakeup latencies were recorded.
    EXPECT_GT(report.osBreakdown[size_t(OsCategory::ActiveExe)].count(),
              0u);
    EXPECT_GT(report.osBreakdown[size_t(OsCategory::Block)].count(),
              0u);
    EXPECT_GT(report.osBreakdown[size_t(OsCategory::Net)].count(), 0u);

    // Context switches happened (blocking design).
    EXPECT_GT(report.contextSwitches.total(), 0u);

    // Latency distribution is sane.
    EXPECT_GT(report.load.latency.valueAtQuantile(0.5), 0);
    EXPECT_LE(report.load.latency.valueAtQuantile(0.5),
              report.load.latency.maxValue());
}

INSTANTIATE_TEST_SUITE_P(
    AllServices, DeploymentTest,
    ::testing::Values(ServiceKind::HdSearch, ServiceKind::Router,
                      ServiceKind::SetAlgebra, ServiceKind::Recommend),
    [](const ::testing::TestParamInfo<ServiceKind> &info) {
        std::string name = serviceName(info.param);
        name.erase(std::remove(name.begin(), name.end(), ' '),
                   name.end());
        return name;
    });

TEST(DeploymentTest2, RouterUsesSixteenShardsByDefault)
{
    DeploymentOptions options = tinyOptions();
    options.routerDefaultShards = true;
    auto deployment =
        ServiceDeployment::create(ServiceKind::Router, options);
    EXPECT_EQ(deployment->leafCount(), 16u);
}

/** Threads a Router deployment starts, counted at their clone. */
uint64_t
routerThreadsStarted(const DeploymentOptions &options)
{
    const SyscallSnapshot before = snapshotSyscalls();
    auto deployment =
        ServiceDeployment::create(ServiceKind::Router, options);
    return diffSyscalls(before, snapshotSyscalls())[size_t(Sys::Clone)];
}

TEST(DeploymentTest2, LeafClientsShareOneResponseThreadPool)
{
    // Fig. 8's mid-tier picks up every leaf's responses on one pool of
    // response threads: 16 leaf pollers, the mid-tier's poller and 4
    // workers, plus the pool, not one pick-up thread per leaf client.
    DeploymentOptions options = tinyOptions();
    options.routerDefaultShards = true;
    ASSERT_EQ(options.leafServer.pollerThreads, 1);
    ASSERT_FALSE(options.leafServer.dispatchToWorkers);
    ASSERT_EQ(options.midTierServer.pollerThreads, 1);
    ASSERT_EQ(options.midTierServer.workerThreads, 4);
    ASSERT_EQ(options.midToLeafClient.completionThreads, 1);
    EXPECT_EQ(routerThreadsStarted(options), 16u + 1u + 4u + 1u);

    options.midToLeafClient.completionThreads = 2;
    EXPECT_EQ(routerThreadsStarted(options), 16u + 1u + 4u + 2u);
}

TEST(DeploymentTest2, NonRouterUsesConfiguredShards)
{
    auto deployment =
        ServiceDeployment::create(ServiceKind::SetAlgebra,
                                  tinyOptions());
    EXPECT_EQ(deployment->leafCount(), 2u);
}

TEST(DeploymentTest2, KillLeafDegradesButDoesNotCrash)
{
    auto deployment =
        ServiceDeployment::create(ServiceKind::SetAlgebra,
                                  tinyOptions());
    deployment->killLeaf(0);

    rpc::RpcClient client(deployment->midTierPort());
    Rng rng(9);
    int ok = 0;
    for (int q = 0; q < 10; ++q) {
        auto result =
            client.callSync(deployment->frontEndMethod(),
                            deployment->sampleRequestBody(rng));
        ok += result.isOk();
    }
    // Set Algebra merges whatever shards respond: all queries answer.
    EXPECT_EQ(ok, 10);
}

TEST(DeploymentTest2, LeafLegsWakeNoThread)
{
    // Leaves answer inline on their poller, so a Router get wakes at
    // most two sleeping threads: a mid-tier worker (the Fig. 8
    // dispatch hand-off) and this thread's callSync rendezvous. A
    // leaf worker pool would add one wake per leg.
    auto deployment =
        ServiceDeployment::create(ServiceKind::Router, tinyOptions());
    rpc::RpcClient client(deployment->midTierPort());
    router::KvRequest request;
    request.op = router::Op::Get;

    constexpr uint64_t kGets = 50;
    const uint64_t before = contentionStats().futexWakes.load();
    for (uint64_t q = 0; q < kGets; ++q) {
        request.key = "key" + std::to_string(q);
        auto result =
            client.callSync(router::kRoute, encodeMessage(request));
        ASSERT_TRUE(result.isOk()) << result.status().toString();
    }
    const uint64_t wakes = contentionStats().futexWakes.load() - before;
    EXPECT_LE(wakes, 2 * kGets);
}

TEST(SaturationTest2, MeasuresPositiveThroughput)
{
    auto deployment =
        ServiceDeployment::create(ServiceKind::Router, tinyOptions());
    const double qps =
        measureSaturation(*deployment, /*max_workers=*/4,
                          /*per_step_ns=*/150'000'000);
    EXPECT_GT(qps, 100.0);
}

TEST(BannerTest, PrintsEnvironment)
{
    std::ostringstream out;
    printEnvironmentBanner(out);
    EXPECT_NE(out.str().find("processor:"), std::string::npos);
    EXPECT_NE(out.str().find("kernel:"), std::string::npos);
}

} // namespace
} // namespace musuite
