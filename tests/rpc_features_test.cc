/**
 * @file
 * Tests for the §VII-inspired RPC extensions: client-side call
 * deadlines (rpc::CallOptions over real TCP) and the adaptive
 * block/poll server policy.
 */

#include <gtest/gtest.h>

#include <atomic>

#include "base/threading.h"
#include "base/time_util.h"
#include "rpc/client.h"
#include "rpc/server.h"

namespace musuite {
namespace rpc {
namespace {

constexpr uint32_t kEcho = 1;
constexpr uint32_t kBlackHole = 2;
constexpr uint32_t kSlow = 3;

std::unique_ptr<Server>
makeServer(ServerOptions options = {})
{
    auto server = std::make_unique<Server>(options);
    server->registerHandler(kEcho, [](ServerCallPtr call) {
        call->respondOk(call->body());
    });
    server->registerHandler(kBlackHole, [](ServerCallPtr) {
        // Never responds: the call object is dropped, simulating a
        // hung or deadlocked downstream.
    });
    server->registerHandler(kSlow, [](ServerCallPtr call) {
        sleepForNanos(30'000'000); // 30 ms.
        call->respondOk(call->body());
    });
    server->start();
    return server;
}

TEST(DeadlineTest, HungCallTimesOut)
{
    auto server = makeServer();
    RpcClient client(server->port());
    CallOptions options;
    options.deadlineNs = 50'000'000; // 50 ms.

    const int64_t start = nowNanos();
    auto result = client.callSync(kBlackHole, "never answered", options);
    const int64_t elapsed = nowNanos() - start;

    ASSERT_FALSE(result.isOk());
    EXPECT_EQ(result.status().code(), StatusCode::DeadlineExceeded);
    EXPECT_GE(elapsed, 40'000'000);  // Not before the deadline...
    EXPECT_LT(elapsed, 2'000'000'000); // ...and promptly after.
}

TEST(DeadlineTest, FastCallsUnaffected)
{
    auto server = makeServer();
    RpcClient client(server->port());
    CallOptions options;
    options.deadlineNs = 500'000'000;
    for (int i = 0; i < 20; ++i) {
        auto result = client.callSync(kEcho, "quick", options);
        ASSERT_TRUE(result.isOk());
        EXPECT_EQ(result.payload(), "quick");
    }
}

TEST(DeadlineTest, GenerousDeadlineLetsSlowCallFinish)
{
    auto server = makeServer();
    RpcClient client(server->port());
    CallOptions options;
    options.deadlineNs = 2'000'000'000;
    auto result = client.callSync(kSlow, "worth the wait", options);
    ASSERT_TRUE(result.isOk());
    EXPECT_EQ(result.payload(), "worth the wait");
}

TEST(DeadlineTest, ExpiredAndLiveCallsCoexist)
{
    auto server = makeServer();
    RpcClient client(server->port());
    CallOptions options;
    options.deadlineNs = 80'000'000;

    std::atomic<int> ok{0}, expired{0};
    CountdownLatch latch(20);
    for (int i = 0; i < 20; ++i) {
        const uint32_t method = i % 2 ? kEcho : kBlackHole;
        client.call(method, "m", options,
                    [&](const Status &status, std::string_view) {
                        if (status.isOk())
                            ok.fetch_add(1);
                        else if (status.code() ==
                                 StatusCode::DeadlineExceeded)
                            expired.fetch_add(1);
                        latch.countDown();
                    });
    }
    latch.wait();
    EXPECT_EQ(ok.load(), 10);
    EXPECT_EQ(expired.load(), 10);
}

TEST(AdaptivePollTest, ServesTrafficCorrectly)
{
    ServerOptions options;
    options.adaptiveIdleStreak = 64;
    auto server = makeServer(options);
    RpcClient client(server->port());

    // Burst - pause - burst: crosses both the polling and blocking
    // phases of the adaptive policy.
    for (int burst = 0; burst < 3; ++burst) {
        for (int i = 0; i < 50; ++i) {
            auto result =
                client.callSync(kEcho, std::to_string(i));
            ASSERT_TRUE(result.isOk());
            EXPECT_EQ(result.payload(), std::to_string(i));
        }
        sleepForNanos(30'000'000); // Let the poller go idle & park.
    }
    EXPECT_GE(server->requestsServed(), 150u);
}

TEST(AdaptivePollTest, ParksWhenIdle)
{
    // After the idle streak the poller must block rather than burn
    // CPU: process CPU time over an idle second stays near zero.
    ServerOptions options;
    options.adaptiveIdleStreak = 16;
    auto server = makeServer(options);
    {
        RpcClient client(server->port());
        ASSERT_TRUE(client.callSync(kEcho, "warm").isOk());
    }

    auto cpu_now = [] {
        timespec ts;
        clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
        return int64_t(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
    };
    // Give the poller time to exhaust its empty-poll streak first.
    sleepForNanos(50'000'000);
    const int64_t cpu_before = cpu_now();
    sleepForNanos(300'000'000);
    const int64_t cpu_used = cpu_now() - cpu_before;
    // A spinning poller would burn ~300ms; a parked one burns ~0.
    EXPECT_LT(cpu_used, 100'000'000);
}

} // namespace
} // namespace rpc
} // namespace musuite
