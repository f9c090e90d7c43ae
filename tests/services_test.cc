/**
 * @file
 * End-to-end tests of the four µSuite services over the real loopback
 * TCP stack: correctness against ground truth (brute-force k-NN,
 * naive document scan, direct leaf queries), replication invariants,
 * and fault tolerance under leaf failure.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "base/rng.h"
#include "dataset/datasets.h"
#include "rpc/client.h"
#include "rpc/server.h"
#include "services/hdsearch/leaf.h"
#include "services/hdsearch/midtier.h"
#include "services/hdsearch/proto.h"
#include "services/recommend/leaf.h"
#include "services/recommend/midtier.h"
#include "services/recommend/proto.h"
#include "services/router/leaf.h"
#include "services/router/midtier.h"
#include "services/router/proto.h"
#include "services/setalgebra/leaf.h"
#include "services/setalgebra/midtier.h"
#include "services/setalgebra/proto.h"

namespace musuite {
namespace {

/** Tiny three-tier rig: leaf servers + channels + mid-tier server. */
struct Rig
{
    std::vector<std::unique_ptr<rpc::Server>> leafServers;
    std::vector<std::shared_ptr<rpc::Channel>> channels;
    std::unique_ptr<rpc::Server> midTier;
    std::unique_ptr<rpc::RpcClient> frontEnd;

    void
    addLeafServer(const std::function<void(rpc::Server &)> &attach)
    {
        rpc::ServerOptions options;
        options.workerThreads = 2;
        options.name = "leaf" + std::to_string(leafServers.size());
        auto server = std::make_unique<rpc::Server>(options);
        attach(*server);
        server->start();
        channels.push_back(
            std::make_shared<rpc::RpcClient>(server->port()));
        leafServers.push_back(std::move(server));
    }

    void
    startMidTier(const std::function<void(rpc::Server &)> &attach)
    {
        rpc::ServerOptions options;
        options.workerThreads = 2;
        options.name = "mid";
        midTier = std::make_unique<rpc::Server>(options);
        attach(*midTier);
        midTier->start();
        frontEnd = std::make_unique<rpc::RpcClient>(midTier->port());
    }

    ~Rig()
    {
        if (midTier)
            midTier->stop();
        frontEnd.reset();
        channels.clear();
        for (auto &server : leafServers)
            server->stop();
    }
};

// --------------------------------------------------------------------
// HDSearch
// --------------------------------------------------------------------

class HdSearchE2E : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        GmmOptions gmm;
        gmm.numVectors = 1200;
        gmm.dimension = 32;
        gmm.clusters = 16;
        gmm.clusterStddev = 0.08;
        dataset = std::make_unique<GmmDataset>(gmm);

        LshParams lsh;
        lsh.numTables = 10;
        lsh.hashesPerTable = 8;
        lsh.bucketWidth = 2.0f;
        lsh.multiProbes = 8;
        auto built = hdsearch::buildShardedIndex(dataset->vectors(),
                                                 numLeaves, lsh);

        for (uint32_t i = 0; i < numLeaves; ++i) {
            auto leaf = std::make_unique<hdsearch::Leaf>(
                std::move(built.leafShards[i]));
            hdsearch::Leaf *raw = leaf.get();
            leaves.push_back(std::move(leaf));
            rig.addLeafServer(
                [raw](rpc::Server &server) { raw->registerWith(server); });
        }
        midtier = std::make_unique<hdsearch::MidTier>(
            std::move(built.midTierIndex), rig.channels);
        rig.startMidTier([this](rpc::Server &server) {
            midtier->registerWith(server);
        });
    }

    hdsearch::NNResponse
    query(const std::vector<float> &features, uint32_t k)
    {
        hdsearch::NNQuery request;
        request.features = features;
        request.k = k;
        auto result = rig.frontEnd->callSync(
            hdsearch::kNearestNeighbors, encodeMessage(request));
        EXPECT_TRUE(result.isOk()) << result.status().toString();
        hdsearch::NNResponse response;
        EXPECT_TRUE(decodeMessage(result.payload(), response));
        return response;
    }

    /** Round-robin sharding: (leaf, local) -> original corpus index. */
    uint64_t
    originalIndex(uint64_t global_id) const
    {
        const uint32_t leaf = uint32_t(global_id >> 32);
        const uint32_t local = uint32_t(global_id);
        return uint64_t(local) * numLeaves + leaf;
    }

    static constexpr uint32_t numLeaves = 4;
    std::unique_ptr<GmmDataset> dataset;
    std::vector<std::unique_ptr<hdsearch::Leaf>> leaves;
    std::unique_ptr<hdsearch::MidTier> midtier;
    Rig rig;
};

TEST_F(HdSearchE2E, AccuracyAgainstBruteForce)
{
    // The paper's metric: cosine similarity between the reported NN's
    // feature vector and the brute-force ground truth, >= 93%.
    BruteForceScanner truth(dataset->vectors());
    Rng rng(1);
    double total_similarity = 0;
    int answered = 0;
    constexpr int queries = 60;
    for (int q = 0; q < queries; ++q) {
        const auto features = dataset->sampleQuery(rng);
        const auto response = query(features, 1);
        const auto exact = truth.topK(features, 1);
        ASSERT_FALSE(exact.empty());
        if (response.pointIds.empty())
            continue; // Counted as similarity 0 below.
        ++answered;
        const uint64_t got = originalIndex(response.pointIds[0]);
        total_similarity += double(
            cosineSimilarity(dataset->vectors().view(got),
                             dataset->vectors().view(exact[0].id)));
    }
    const double accuracy = total_similarity / queries;
    EXPECT_GE(answered, queries * 9 / 10);
    EXPECT_GE(accuracy, 0.93) << "paper's minimum accuracy score";
}

TEST_F(HdSearchE2E, ResponsesAreDistanceSorted)
{
    Rng rng(2);
    for (int q = 0; q < 10; ++q) {
        const auto response = query(dataset->sampleQuery(rng), 8);
        EXPECT_TRUE(std::is_sorted(response.distances.begin(),
                                   response.distances.end()));
        EXPECT_LE(response.pointIds.size(), 8u);
        EXPECT_EQ(response.pointIds.size(), response.distances.size());
    }
}

TEST_F(HdSearchE2E, ReportedDistancesAreCorrect)
{
    Rng rng(3);
    const auto features = dataset->sampleQuery(rng);
    const auto response = query(features, 4);
    for (size_t i = 0; i < response.pointIds.size(); ++i) {
        const uint64_t original = originalIndex(response.pointIds[i]);
        ASSERT_LT(original, dataset->vectors().size());
        const float exact = squaredL2(
            features, dataset->vectors().view(original));
        EXPECT_NEAR(response.distances[i], exact,
                    1e-3f * (1.0f + exact));
    }
}

TEST_F(HdSearchE2E, NoDuplicatePointsInResponse)
{
    Rng rng(4);
    const auto response = query(dataset->sampleQuery(rng), 16);
    std::set<uint64_t> unique(response.pointIds.begin(),
                              response.pointIds.end());
    EXPECT_EQ(unique.size(), response.pointIds.size());
}

TEST_F(HdSearchE2E, InvalidQueryRejected)
{
    auto result = rig.frontEnd->callSync(hdsearch::kNearestNeighbors,
                                         "garbage");
    EXPECT_FALSE(result.isOk());
    EXPECT_EQ(result.status().code(), StatusCode::InvalidArgument);
}

// --------------------------------------------------------------------
// Router
// --------------------------------------------------------------------

class RouterE2E : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        for (uint32_t i = 0; i < numLeaves; ++i) {
            auto leaf = std::make_unique<router::Leaf>();
            router::Leaf *raw = leaf.get();
            leaves.push_back(std::move(leaf));
            rig.addLeafServer(
                [raw](rpc::Server &server) { raw->registerWith(server); });
        }
        router::MidTierOptions options;
        options.replicas = 3;
        midtier =
            std::make_unique<router::MidTier>(rig.channels, options);
        rig.startMidTier([this](rpc::Server &server) {
            midtier->registerWith(server);
        });
    }

    router::KvReply
    issue(router::Op op, const std::string &key,
          const std::string &value = "")
    {
        router::KvRequest request;
        request.op = op;
        request.key = key;
        request.value = value;
        auto result = rig.frontEnd->callSync(router::kRoute,
                                             encodeMessage(request));
        EXPECT_TRUE(result.isOk()) << result.status().toString();
        router::KvReply reply;
        EXPECT_TRUE(decodeMessage(result.payload(), reply));
        return reply;
    }

    static constexpr uint32_t numLeaves = 8;
    std::vector<std::unique_ptr<router::Leaf>> leaves;
    std::unique_ptr<router::MidTier> midtier;
    Rig rig;
};

TEST_F(RouterE2E, SetThenGetRoundTrip)
{
    EXPECT_TRUE(issue(router::Op::Set, "alpha", "one").found);
    const auto reply = issue(router::Op::Get, "alpha");
    EXPECT_TRUE(reply.found);
    EXPECT_EQ(reply.value, "one");
}

TEST_F(RouterE2E, MissingKeyNotFound)
{
    EXPECT_FALSE(issue(router::Op::Get, "never-set").found);
}

TEST_F(RouterE2E, SetsReachExactlyTheReplicaPool)
{
    const std::string key = "replicated-key";
    issue(router::Op::Set, key, "payload");
    const auto pool = midtier->replicaPool(key);
    const std::set<uint32_t> pool_set(pool.begin(), pool.end());
    EXPECT_EQ(pool_set.size(), 3u);
    for (uint32_t i = 0; i < numLeaves; ++i) {
        const bool present =
            leaves[i]->cache().get(key).has_value();
        EXPECT_EQ(present, pool_set.count(i) > 0) << "leaf " << i;
    }
}

TEST_F(RouterE2E, RandomReplicaSelectionSpreadsGets)
{
    const std::string key = "hot-key";
    issue(router::Op::Set, key, "v");
    const auto pool = midtier->replicaPool(key);

    std::map<uint32_t, uint64_t> before;
    for (uint32_t leaf : pool)
        before[leaf] = leaves[leaf]->opsServed();
    for (int i = 0; i < 120; ++i)
        issue(router::Op::Get, key);

    // Every replica should have served some gets (~40 each).
    for (uint32_t leaf : pool) {
        const uint64_t served = leaves[leaf]->opsServed() - before[leaf];
        EXPECT_GE(served, 10u) << "replica " << leaf << " starved";
    }
}

TEST_F(RouterE2E, GetsFailOverWhenReplicaDies)
{
    const std::string key = "durable-key";
    issue(router::Op::Set, key, "still-here");
    const auto pool = midtier->replicaPool(key);

    // Kill the first replica's server.
    rig.leafServers[pool[0]]->stop();

    int found = 0;
    for (int i = 0; i < 30; ++i)
        found += issue(router::Op::Get, key).found;
    EXPECT_EQ(found, 30) << "gets must fail over to live replicas";
}

TEST_F(RouterE2E, SetsSurviveSingleReplicaFailure)
{
    const std::string key = "write-during-failure";
    const auto pool = midtier->replicaPool(key);
    rig.leafServers[pool[1]]->stop();

    EXPECT_TRUE(issue(router::Op::Set, key, "vv").found);
    const auto reply = issue(router::Op::Get, key);
    EXPECT_TRUE(reply.found);
    EXPECT_EQ(reply.value, "vv");
}

TEST_F(RouterE2E, UpdateOverwritesAcrossReplicas)
{
    issue(router::Op::Set, "counter", "1");
    issue(router::Op::Set, "counter", "2");
    for (int i = 0; i < 20; ++i) {
        const auto reply = issue(router::Op::Get, "counter");
        ASSERT_TRUE(reply.found);
        EXPECT_EQ(reply.value, "2") << "stale replica read";
    }
}

TEST_F(RouterE2E, PoolsAreWellDistributed)
{
    std::map<uint32_t, int> primary_counts;
    for (int i = 0; i < 8000; ++i) {
        const auto pool =
            midtier->replicaPool("key" + std::to_string(i));
        primary_counts[pool[0]]++;
    }
    for (uint32_t leaf = 0; leaf < numLeaves; ++leaf) {
        EXPECT_NEAR(primary_counts[leaf], 1000, 150)
            << "leaf " << leaf;
    }
}

// --------------------------------------------------------------------
// Set Algebra
// --------------------------------------------------------------------

class SetAlgebraE2E : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        CorpusOptions options;
        options.numDocuments = 3000;
        options.vocabulary = 2000;
        options.meanDocLength = 60;
        corpus = std::make_unique<TextCorpus>(options);

        std::vector<std::vector<std::vector<uint32_t>>> shard_docs(
            numLeaves);
        std::vector<std::vector<uint32_t>> shard_ids(numLeaves);
        for (uint32_t d = 0; d < corpus->size(); ++d) {
            shard_docs[d % numLeaves].push_back(
                corpus->documents()[d]);
            shard_ids[d % numLeaves].push_back(d);
        }
        for (uint32_t i = 0; i < numLeaves; ++i) {
            auto leaf = std::make_unique<setalgebra::Leaf>(
                std::make_unique<InvertedIndex>(shard_docs[i],
                                                shard_ids[i],
                                                /*stop_terms=*/0));
            setalgebra::Leaf *raw = leaf.get();
            leaves.push_back(std::move(leaf));
            rig.addLeafServer(
                [raw](rpc::Server &server) { raw->registerWith(server); });
        }
        midtier = std::make_unique<setalgebra::MidTier>(rig.channels);
        rig.startMidTier([this](rpc::Server &server) {
            midtier->registerWith(server);
        });
    }

    std::vector<uint32_t>
    search(const std::vector<uint32_t> &terms)
    {
        setalgebra::SearchQuery request;
        request.terms = terms;
        auto result = rig.frontEnd->callSync(setalgebra::kSearch,
                                             encodeMessage(request));
        EXPECT_TRUE(result.isOk()) << result.status().toString();
        setalgebra::PostingReply reply;
        EXPECT_TRUE(decodeMessage(result.payload(), reply));
        return reply.docIds;
    }

    /** Ground truth: scan every document. */
    std::vector<uint32_t>
    naiveSearch(const std::vector<uint32_t> &terms) const
    {
        std::vector<uint32_t> docs;
        for (uint32_t d = 0; d < corpus->size(); ++d) {
            const auto &doc = corpus->documents()[d];
            bool all = true;
            for (uint32_t term : terms) {
                if (std::find(doc.begin(), doc.end(), term) ==
                    doc.end()) {
                    all = false;
                    break;
                }
            }
            if (all)
                docs.push_back(d);
        }
        return docs;
    }

    static constexpr uint32_t numLeaves = 4;
    std::unique_ptr<TextCorpus> corpus;
    std::vector<std::unique_ptr<setalgebra::Leaf>> leaves;
    std::unique_ptr<setalgebra::MidTier> midtier;
    Rig rig;
};

TEST_F(SetAlgebraE2E, MatchesNaiveScanExactly)
{
    Rng rng(10);
    for (int q = 0; q < 25; ++q) {
        const auto terms = corpus->sampleQuery(rng, 3);
        EXPECT_EQ(search(terms), naiveSearch(terms))
            << "query " << q;
    }
}

TEST_F(SetAlgebraE2E, ResultsAreSortedUnique)
{
    Rng rng(11);
    for (int q = 0; q < 10; ++q) {
        const auto docs = search(corpus->sampleQuery(rng, 2));
        EXPECT_TRUE(std::is_sorted(docs.begin(), docs.end()));
        EXPECT_TRUE(std::adjacent_find(docs.begin(), docs.end()) ==
                    docs.end());
    }
}

TEST_F(SetAlgebraE2E, RareTermConjunctionIsEmptyOrSmall)
{
    // Six distinct rare-ish terms rarely co-occur.
    const std::vector<uint32_t> terms = {1500, 1600, 1700,
                                         1800, 1900, 1999};
    EXPECT_EQ(search(terms), naiveSearch(terms));
}

TEST_F(SetAlgebraE2E, SingleTermReturnsItsPostingList)
{
    const std::vector<uint32_t> term = {0}; // Most frequent term.
    const auto docs = search(term);
    EXPECT_EQ(docs, naiveSearch(term));
    EXPECT_GT(docs.size(), corpus->size() / 4) << "term 0 is hot";
}

TEST_F(SetAlgebraE2E, EmptyQueryRejected)
{
    auto result = rig.frontEnd->callSync(
        setalgebra::kSearch,
        encodeMessage(setalgebra::SearchQuery{}));
    EXPECT_FALSE(result.isOk());
}

// --------------------------------------------------------------------
// Recommend
// --------------------------------------------------------------------

class RecommendE2E : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        RatingsOptions options;
        options.users = 80;
        options.items = 60;
        options.meanRatingsPerUser = 12;
        options.seed = 55;
        dataset = std::make_unique<RatingsDataset>(
            makeRatingsDataset(options, 100));

        auto shards =
            recommend::shardRatings(dataset->ratings, numLeaves);
        for (uint32_t i = 0; i < numLeaves; ++i) {
            CfOptions cf;
            cf.nmf.maxIterations = 25;
            auto leaf = std::make_unique<recommend::Leaf>(
                std::move(shards[i]), cf);
            recommend::Leaf *raw = leaf.get();
            leaves.push_back(std::move(leaf));
            rig.addLeafServer(
                [raw](rpc::Server &server) { raw->registerWith(server); });
        }
        midtier = std::make_unique<recommend::MidTier>(rig.channels);
        rig.startMidTier([this](rpc::Server &server) {
            midtier->registerWith(server);
        });
    }

    double
    predict(uint32_t user, uint32_t item)
    {
        recommend::RatingQuery request{user, item};
        auto result = rig.frontEnd->callSync(recommend::kPredict,
                                             encodeMessage(request));
        EXPECT_TRUE(result.isOk()) << result.status().toString();
        recommend::RatingReply reply;
        EXPECT_TRUE(decodeMessage(result.payload(), reply));
        return reply.rating;
    }

    static constexpr uint32_t numLeaves = 4;
    std::unique_ptr<RatingsDataset> dataset;
    std::vector<std::unique_ptr<recommend::Leaf>> leaves;
    std::unique_ptr<recommend::MidTier> midtier;
    Rig rig;
};

TEST_F(RecommendE2E, MidTierAveragesLeafPredictions)
{
    for (int q = 0; q < 10; ++q) {
        const auto [user, item] = dataset->heldOutQueries[size_t(q)];
        double expected = 0;
        for (const auto &leaf : leaves)
            expected += leaf->filter().predict(user, item);
        expected /= numLeaves;
        EXPECT_NEAR(predict(user, item), expected, 1e-9);
    }
}

TEST_F(RecommendE2E, PredictionsAreFiniteAndPlausible)
{
    for (const auto &[user, item] : dataset->heldOutQueries) {
        const double rating = predict(user, item);
        EXPECT_TRUE(std::isfinite(rating));
        EXPECT_GE(rating, -1.0);
        EXPECT_LE(rating, 8.0);
    }
}

TEST_F(RecommendE2E, DeterministicAcrossRepeatedQueries)
{
    const auto [user, item] = dataset->heldOutQueries[0];
    const double first = predict(user, item);
    for (int i = 0; i < 5; ++i)
        EXPECT_DOUBLE_EQ(predict(user, item), first);
}

TEST_F(RecommendE2E, GarbageQueryRejected)
{
    auto result = rig.frontEnd->callSync(recommend::kPredict,
                                         std::string("\xFF\xFF", 2));
    // A two-byte body may decode as two varints; send truncation
    // instead: a single continuation byte cannot decode.
    auto truncated = rig.frontEnd->callSync(recommend::kPredict,
                                            std::string("\x80", 1));
    EXPECT_FALSE(truncated.isOk());
    (void)result;
}

} // namespace
} // namespace musuite
