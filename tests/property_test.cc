/**
 * @file
 * Cross-cutting parameterized property sweeps (TEST_P) over the
 * substrates: RPC payload sizes, LSH parameter monotonicity (more
 * tables/probes never reduce recall), Zipf skew behaviour over a grid
 * of (n, s), histogram quantile correctness across distribution
 * shapes, replication-pool invariants over shard counts, and posting
 * intersection associativity.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "base/rng.h"
#include "dataset/datasets.h"
#include "index/lsh.h"
#include "index/postings.h"
#include "rpc/client.h"
#include "rpc/server.h"
#include "services/router/midtier.h"
#include "stats/histogram.h"

namespace musuite {
namespace {

// --------------------------------------------------------------------
// RPC payload-size sweep.
// --------------------------------------------------------------------

class RpcPayloadSweep : public ::testing::TestWithParam<size_t>
{};

TEST_P(RpcPayloadSweep, EchoPreservesEveryByte)
{
    rpc::Server server;
    server.registerHandler(1, [](rpc::ServerCallPtr call) {
        call->respondOk(call->body());
    });
    server.start();
    rpc::RpcClient client(server.port());

    Rng rng(GetParam());
    std::string body(GetParam(), '\0');
    for (char &c : body)
        c = char(rng.next());

    auto result = client.callSync(1, body);
    ASSERT_TRUE(result.isOk());
    EXPECT_EQ(result.payload(), body);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RpcPayloadSweep,
                         ::testing::Values(0, 1, 3, 64, 1000, 65536,
                                           1 << 20));

// --------------------------------------------------------------------
// LSH recall monotonicity in L (tables) and probes.
// --------------------------------------------------------------------

struct LshGrid
{
    int tables;
    int probes;
};

class LshRecallGrid : public ::testing::TestWithParam<LshGrid>
{
  protected:
    static double
    recall(int tables, int probes)
    {
        GmmOptions gmm;
        gmm.numVectors = 600;
        gmm.dimension = 24;
        gmm.clusters = 12;
        gmm.clusterStddev = 0.1;
        gmm.seed = 99;
        GmmDataset dataset(gmm);

        LshParams params;
        params.numTables = tables;
        params.hashesPerTable = 8;
        params.bucketWidth = 2.0f;
        params.multiProbes = probes;
        params.seed = 7;
        LshIndex index(gmm.dimension, params);
        for (uint64_t i = 0; i < dataset.vectors().size(); ++i)
            index.insert(dataset.vectors().view(i),
                         {0, uint32_t(i)});

        BruteForceScanner truth(dataset.vectors());
        Rng rng(3);
        int hits = 0;
        constexpr int queries = 60;
        for (int q = 0; q < queries; ++q) {
            const auto query = dataset.sampleQuery(rng);
            const auto exact = truth.topK(query, 1);
            const auto candidates = index.query(query);
            auto it = candidates.find(0);
            if (it != candidates.end() &&
                std::find(it->second.begin(), it->second.end(),
                          uint32_t(exact[0].id)) != it->second.end()) {
                ++hits;
            }
        }
        return double(hits) / queries;
    }
};

TEST_P(LshRecallGrid, MoreTablesNeverHurtRecall)
{
    const LshGrid grid = GetParam();
    const double fewer = recall(grid.tables, grid.probes);
    const double more = recall(grid.tables * 2, grid.probes);
    EXPECT_GE(more, fewer - 0.05) << "doubling tables lost recall";
}

TEST_P(LshRecallGrid, MoreProbesNeverHurtRecall)
{
    const LshGrid grid = GetParam();
    const double fewer = recall(grid.tables, grid.probes);
    const double more = recall(grid.tables, grid.probes + 8);
    EXPECT_GE(more, fewer - 0.05) << "adding probes lost recall";
}

INSTANTIATE_TEST_SUITE_P(Grid, LshRecallGrid,
                         ::testing::Values(LshGrid{2, 0},
                                           LshGrid{4, 0},
                                           LshGrid{4, 4},
                                           LshGrid{8, 8}),
                         [](const auto &info) {
                             return "L" +
                                    std::to_string(info.param.tables) +
                                    "_p" +
                                    std::to_string(info.param.probes);
                         });

// --------------------------------------------------------------------
// Zipf sampler across (n, s).
// --------------------------------------------------------------------

struct ZipfGrid
{
    uint64_t n;
    double s;
};

class ZipfSweep : public ::testing::TestWithParam<ZipfGrid>
{};

TEST_P(ZipfSweep, HeadMassAndRangeHold)
{
    const ZipfGrid grid = GetParam();
    ZipfSampler zipf(grid.n, grid.s);
    Rng rng(grid.n * 7 + uint64_t(grid.s * 100));

    constexpr int draws = 30000;
    uint64_t head = 0; // Rank 1 draws.
    for (int i = 0; i < draws; ++i) {
        const uint64_t rank = zipf.sample(rng);
        ASSERT_GE(rank, 1u);
        ASSERT_LE(rank, grid.n);
        head += rank == 1;
    }
    // Rank 1's mass is 1/H(n,s); sanity-check it is clearly above
    // the uniform share and below certainty.
    EXPECT_GT(head, draws / int(grid.n));
    EXPECT_LT(head, draws);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ZipfSweep,
    ::testing::Values(ZipfGrid{10, 0.5}, ZipfGrid{10, 1.0},
                      ZipfGrid{1000, 0.8}, ZipfGrid{1000, 0.99},
                      ZipfGrid{100000, 0.99}, ZipfGrid{100000, 1.2}),
    [](const auto &info) {
        return "n" + std::to_string(info.param.n) + "_s" +
               std::to_string(int(info.param.s * 100));
    });

// --------------------------------------------------------------------
// Histogram quantiles across distribution shapes.
// --------------------------------------------------------------------

class HistogramShapeSweep : public ::testing::TestWithParam<int>
{};

TEST_P(HistogramShapeSweep, QuantilesTrackSortedData)
{
    const int shape = GetParam();
    Rng rng(shape * 17 + 1);
    Histogram hist;
    std::vector<int64_t> values;
    for (int i = 0; i < 30000; ++i) {
        int64_t v = 0;
        switch (shape) {
          case 0: v = int64_t(rng.nextBounded(1000)); break;
          case 1: v = int64_t(rng.nextExponential(1e-5)); break;
          case 2:
            v = int64_t(
                std::exp(rng.nextGaussian(10.0, 2.0)));
            break;
          case 3: // Bimodal: fast path + slow path.
            v = rng.nextBool(0.9)
                    ? int64_t(rng.nextBounded(10'000))
                    : int64_t(1'000'000 + rng.nextBounded(100'000));
            break;
        }
        values.push_back(v);
        hist.record(v);
    }
    std::sort(values.begin(), values.end());
    for (double q : {0.25, 0.5, 0.9, 0.99, 0.999}) {
        const int64_t exact = values[size_t(q * (values.size() - 1))];
        const int64_t approx = hist.valueAtQuantile(q);
        EXPECT_NEAR(double(approx), double(exact),
                    std::max(8.0, double(exact) * 0.04))
            << "shape=" << shape << " q=" << q;
    }
}

std::string
histogramShapeName(const ::testing::TestParamInfo<int> &info)
{
    switch (info.param) {
      case 0: return "uniform";
      case 1: return "exponential";
      case 2: return "lognormal";
      default: return "bimodal";
    }
}

INSTANTIATE_TEST_SUITE_P(Shapes, HistogramShapeSweep,
                         ::testing::Values(0, 1, 2, 3),
                         histogramShapeName);

// --------------------------------------------------------------------
// Router replication pools over shard counts.
// --------------------------------------------------------------------

// replicaPool is pure route math; it never dials these channels.
class NullChannel : public rpc::Channel
{
  protected:
    void
    transportCall(uint32_t, std::string, int64_t,
                  Callback callback) override
    {
        callback(Status(StatusCode::Unavailable, "null"), {});
    }
};

class ReplicaPoolMath : public ::testing::TestWithParam<uint32_t>
{};

TEST_P(ReplicaPoolMath, PoolsAreDistinctStableAndInRange)
{
    const uint32_t shards = GetParam();
    std::vector<std::shared_ptr<rpc::Channel>> channels;
    for (uint32_t i = 0; i < shards; ++i)
        channels.push_back(std::make_shared<NullChannel>());
    router::MidTierOptions options;
    options.replicas = 3;
    router::MidTier midtier(channels, options);

    const uint32_t expected_size = std::min(3u, shards);
    for (int k = 0; k < 500; ++k) {
        const std::string key = "key" + std::to_string(k);
        const auto pool = midtier.replicaPool(key);
        ASSERT_EQ(pool.size(), expected_size);
        std::set<uint32_t> unique(pool.begin(), pool.end());
        EXPECT_EQ(unique.size(), expected_size) << "duplicate replica";
        for (uint32_t leaf : pool)
            EXPECT_LT(leaf, shards);
        EXPECT_EQ(pool, midtier.replicaPool(key)) << "unstable route";
    }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ReplicaPoolMath,
                         ::testing::Values(1, 2, 3, 4, 8, 16, 64));

// --------------------------------------------------------------------
// Posting intersection associativity.
// --------------------------------------------------------------------

TEST(IntersectionProperty, OrderOfListsDoesNotMatter)
{
    Rng rng(404);
    std::vector<PostingList> lists;
    for (int l = 0; l < 4; ++l) {
        std::set<uint32_t> docs;
        const size_t n = 50 + rng.nextBounded(400);
        while (docs.size() < n)
            docs.insert(uint32_t(rng.nextBounded(2000)));
        lists.emplace_back(
            std::vector<uint32_t>(docs.begin(), docs.end()));
    }
    std::vector<const PostingList *> order = {&lists[0], &lists[1],
                                              &lists[2], &lists[3]};
    const auto baseline = intersectAll(order);
    std::sort(order.begin(), order.end());
    do {
        EXPECT_EQ(intersectAll(order), baseline);
    } while (std::next_permutation(order.begin(), order.end()));
}

} // namespace
} // namespace musuite
