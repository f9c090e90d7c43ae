/**
 * @file
 * Heap-allocation budget of the per-call path: a steady-state
 * Channel::call with a deadline, a retry budget and a peer-health
 * tracker over SimChannel, and a 3-leg Downstream::serve fan-out
 * behind it. This executable replaces the global operator new with a
 * counting one, so each test measures exactly the allocations a window
 * of calls makes once every pool, heap and debug-sync table has warmed
 * up. The ceilings are the counts DESIGN.md ("Resilience") budgets; an
 * allocation added to the path fails them.
 */

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "base/clock.h"
#include "rpc/channel.h"
#include "rpc/health.h"
#include "rpc/server.h"
#include "serde/wire.h"
#include "services/graph/node.h"
#include "services/graph/proto.h"
#include "simkernel/sim_transport.h"
#include "simkernel/simclock.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

} // namespace

// Kept out of line: once one side is inlined into a caller, GCC's
// -Wmismatched-new-delete pairs std::malloc or std::free with the
// other side's operator and reports a mismatch.
[[gnu::noinline]] void *
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void *
operator new[](std::size_t size)
{
    return operator new(size);
}

[[gnu::noinline]] void operator delete(void *p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void *p) noexcept { std::free(p); }
[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}
[[gnu::noinline]] void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace musuite {
namespace {

constexpr uint32_t kEcho = 1;
constexpr int kWarmup = 64;
constexpr int kMeasured = 256;

/**
 * Budgets per operation. A call owns its CallState; an attempt its
 * record plus the two callables holding it (transport response,
 * deadline timer); the server its ServerCall. A fan-out request is the
 * client's call to the mid-tier, the mid-tier's leg list, the fan-out's
 * shared state and results, and three leg calls each with the
 * fan-out's per-leg callback.
 */
constexpr uint64_t kAllocationsPerCall = 5;
constexpr uint64_t kAllocationsPerFanout =
    kAllocationsPerCall + 3 + 3 * (kAllocationsPerCall + 1);

rpc::CallOptions
resilientOptions()
{
    rpc::CallOptions options;
    options.deadlineNs = 10'000'000;
    options.totalDeadlineNs = 40'000'000;
    options.maxAttempts = 2;
    options.backoffBaseNs = 1'000'000;
    options.backoffJitterSeed = 7;
    return options;
}

/** Allocations `issue(i)` makes over kMeasured rounds, each drained,
 *  after kWarmup unmeasured rounds. */
template <typename Issue>
uint64_t
steadyStateAllocations(sim::SimClock &clock, Issue issue)
{
    for (int i = 0; i < kWarmup; ++i) {
        issue(i);
        clock.runUntilIdle();
    }
    const uint64_t before = g_allocations.load();
    for (int i = 0; i < kMeasured; ++i) {
        issue(kWarmup + i);
        clock.runUntilIdle();
    }
    return g_allocations.load() - before;
}

TEST(AllocBudgetTest, ResilientSimCallStaysWithinItsBudget)
{
    sim::SimClock clock;
    ScopedClock ambient(clock);
    rpc::Server server;
    server.registerHandler(kEcho, [](rpc::ServerCallPtr call) {
        call->respondOk("pong");
    });
    sim::SimChannel channel(clock, server);
    channel.setPeerHealth(
        std::make_shared<rpc::PeerHealth>(rpc::PeerHealthOptions{}, &clock));
    const rpc::CallOptions options = resilientOptions();

    int ok = 0;
    const uint64_t allocations = steadyStateAllocations(clock, [&](int) {
        channel.call(kEcho, "ping", options,
                     [&ok](const Status &status, std::string_view) {
                         ok += status.isOk() ? 1 : 0;
                     });
    });
    EXPECT_EQ(ok, kWarmup + kMeasured);
    EXPECT_EQ(channel.peerHealth()->outcomes(),
              uint64_t(kWarmup + kMeasured));
    EXPECT_LE(allocations, kAllocationsPerCall * kMeasured)
        << double(allocations) / kMeasured << " allocations per call";
}

TEST(AllocBudgetTest, ThreeLegFanoutStaysWithinItsBudget)
{
    sim::SimClock clock;
    ScopedClock ambient(clock);
    std::vector<std::unique_ptr<rpc::Server>> leaf_servers;
    std::vector<std::unique_ptr<graph::GraphNode>> leaves;
    std::vector<std::shared_ptr<rpc::Channel>> legs;
    for (int i = 0; i < 3; ++i) {
        leaf_servers.push_back(std::make_unique<rpc::Server>());
        leaves.push_back(std::make_unique<graph::GraphNode>(
            std::vector<std::shared_ptr<rpc::Channel>>{}));
        leaves.back()->registerWith(*leaf_servers.back());
        legs.push_back(std::make_shared<sim::SimChannel>(
            clock, *leaf_servers.back()));
    }
    graph::NodeOptions mid_options;
    mid_options.fanout.leg = resilientOptions();
    mid_options.fanout.quorumFraction = 2.0 / 3.0;
    mid_options.fanout.ejection =
        std::make_shared<rpc::EjectionPolicy>(rpc::EjectionPolicy::Options{},
                                              &clock);
    rpc::Server mid_server;
    graph::GraphNode mid(legs, mid_options);
    mid.registerWith(mid_server);
    sim::SimChannel client(clock, mid_server);
    const rpc::CallOptions options = resilientOptions();

    int visited_all = 0;
    const uint64_t allocations = steadyStateAllocations(clock, [&](int i) {
        graph::GraphRequest request;
        request.workId = uint64_t(i) + 1;
        client.call(graph::kProcess, encodeMessage(request), options,
                    [&visited_all](const Status &status,
                                   std::string_view payload) {
                        graph::GraphReply reply;
                        if (status.isOk() && decodeMessage(payload, reply) &&
                            reply.nodesVisited == 4)
                            ++visited_all;
                    });
    });
    EXPECT_EQ(visited_all, kWarmup + kMeasured);
    EXPECT_LE(allocations, kAllocationsPerFanout * kMeasured)
        << double(allocations) / kMeasured << " allocations per fan-out";
}

} // namespace
} // namespace musuite
