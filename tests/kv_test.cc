/**
 * @file
 * Tests for mucache: get/set/delete semantics, LRU eviction under a
 * byte budget, TTL expiry, statistics, and concurrent access.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "base/rng.h"
#include "base/threading.h"
#include "base/time_util.h"
#include "kv/mucache.h"

namespace musuite {
namespace {

TEST(MuCacheTest, SetThenGet)
{
    MuCache cache;
    EXPECT_TRUE(cache.set("k", "v"));
    auto value = cache.get("k");
    ASSERT_TRUE(value.has_value());
    EXPECT_EQ(*value, "v");
}

TEST(MuCacheTest, MissingKeyIsMiss)
{
    MuCache cache;
    EXPECT_FALSE(cache.get("nope").has_value());
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(MuCacheTest, OverwriteReplacesValue)
{
    MuCache cache;
    cache.set("k", "v1");
    cache.set("k", "v2");
    EXPECT_EQ(*cache.get("k"), "v2");
    EXPECT_EQ(cache.itemCount(), 1u);
}

TEST(MuCacheTest, RemoveDeletes)
{
    MuCache cache;
    cache.set("k", "v");
    EXPECT_TRUE(cache.remove("k"));
    EXPECT_FALSE(cache.remove("k"));
    EXPECT_FALSE(cache.get("k").has_value());
}

TEST(MuCacheTest, EmptyValueIsStorable)
{
    MuCache cache;
    cache.set("k", "");
    auto value = cache.get("k");
    ASSERT_TRUE(value.has_value());
    EXPECT_EQ(*value, "");
}

TEST(MuCacheTest, OversizedItemRejected)
{
    CacheOptions options;
    options.shardCount = 1;
    options.capacityBytes = 1024;
    MuCache cache(options);
    EXPECT_FALSE(cache.set("big", std::string(4096, 'x')));
    EXPECT_EQ(cache.itemCount(), 0u);
}

TEST(MuCacheTest, LruEvictsOldest)
{
    CacheOptions options;
    options.shardCount = 1;
    // Each entry costs ~64 + key + value bytes; budget for ~4.
    options.capacityBytes = 4 * (64 + 2 + 8);
    MuCache cache(options);

    for (int i = 0; i < 8; ++i)
        cache.set(std::string("k").append(std::to_string(i)), "12345678");
    EXPECT_GT(cache.stats().evictions, 0u);
    // The most recent key must survive.
    EXPECT_TRUE(cache.get("k7").has_value());
    // The oldest must be gone.
    EXPECT_FALSE(cache.get("k0").has_value());
}

TEST(MuCacheTest, GetRefreshesRecency)
{
    CacheOptions options;
    options.shardCount = 1;
    options.capacityBytes = 3 * (64 + 2 + 4);
    MuCache cache(options);

    cache.set("a", "1111");
    cache.set("b", "2222");
    cache.set("c", "3333");
    // Touch "a" so "b" becomes the eviction victim.
    EXPECT_TRUE(cache.get("a").has_value());
    cache.set("d", "4444");
    EXPECT_TRUE(cache.get("a").has_value());
    EXPECT_FALSE(cache.get("b").has_value());
}

TEST(MuCacheTest, TtlExpires)
{
    MuCache cache;
    cache.set("ephemeral", "v", 5'000'000); // 5 ms TTL.
    EXPECT_TRUE(cache.get("ephemeral").has_value());
    sleepForNanos(10'000'000);
    EXPECT_FALSE(cache.get("ephemeral").has_value());
    EXPECT_EQ(cache.stats().expirations, 1u);
}

TEST(MuCacheTest, ZeroTtlNeverExpires)
{
    MuCache cache;
    cache.set("stable", "v", 0);
    sleepForNanos(5'000'000);
    EXPECT_TRUE(cache.get("stable").has_value());
}

TEST(MuCacheTest, StatsTrackHitsAndMisses)
{
    MuCache cache;
    cache.set("k", "v");
    cache.get("k");
    cache.get("k");
    cache.get("absent");
    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits, 2u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.sets, 1u);
}

TEST(MuCacheTest, ClearEmpties)
{
    MuCache cache;
    for (int i = 0; i < 100; ++i)
        cache.set(std::to_string(i), "v");
    cache.clear();
    EXPECT_EQ(cache.itemCount(), 0u);
    EXPECT_EQ(cache.stats().currentBytes, 0u);
}

TEST(MuCacheTest, ManyKeysAcrossShards)
{
    CacheOptions options;
    options.shardCount = 16;
    options.capacityBytes = 64u << 20;
    MuCache cache(options);
    constexpr int n = 20000;
    for (int i = 0; i < n; ++i)
        cache.set("key-" + std::to_string(i),
                  "value-" + std::to_string(i));
    EXPECT_EQ(cache.itemCount(), uint64_t(n));
    Rng rng(3);
    for (int trial = 0; trial < 1000; ++trial) {
        const int i = int(rng.nextBounded(n));
        auto value = cache.get("key-" + std::to_string(i));
        ASSERT_TRUE(value.has_value());
        EXPECT_EQ(*value, "value-" + std::to_string(i));
    }
}

TEST(MuCacheTest, ConcurrentMixedWorkloadIsConsistent)
{
    MuCache cache;
    constexpr int threads = 4;
    constexpr int ops = 4000;
    std::atomic<int> wrong{0};
    {
        std::vector<ScopedThread> workers;
        for (int t = 0; t < threads; ++t) {
            workers.emplace_back("kv-worker", [&, t] {
                Rng rng(100 + t);
                for (int i = 0; i < ops; ++i) {
                    const std::string key = std::string("k").append(
                        std::to_string(rng.nextBounded(256)));
                    // Value is derived from key, so any read result
                    // must match its own key.
                    if (rng.nextBool(0.5)) {
                        cache.set(key, "val:" + key);
                    } else {
                        auto value = cache.get(key);
                        if (value && *value != "val:" + key)
                            wrong.fetch_add(1);
                    }
                }
            });
        }
    }
    EXPECT_EQ(wrong.load(), 0);
}

/** Parameterized shard-count sweep: behaviour must not depend on it. */
class MuCacheShardTest : public ::testing::TestWithParam<size_t>
{};

TEST_P(MuCacheShardTest, BasicSemanticsPerShardCount)
{
    CacheOptions options;
    options.shardCount = GetParam();
    MuCache cache(options);
    for (int i = 0; i < 500; ++i)
        cache.set("key" + std::to_string(i), std::to_string(i * i));
    for (int i = 0; i < 500; ++i) {
        auto value = cache.get("key" + std::to_string(i));
        ASSERT_TRUE(value.has_value()) << i;
        EXPECT_EQ(*value, std::to_string(i * i));
    }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, MuCacheShardTest,
                         ::testing::Values(1, 2, 4, 8, 32));

} // namespace
} // namespace musuite
