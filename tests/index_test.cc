/**
 * @file
 * Tests for the index substrates: distance kernels, top-k merging,
 * LSH recall against brute-force ground truth, posting-list skips,
 * intersections (validated against a naive reference), unions, and
 * inverted-index stop lists.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "base/rng.h"
#include "dataset/datasets.h"
#include "index/lsh.h"
#include "index/postings.h"
#include "index/vectors.h"

namespace musuite {
namespace {

// --------------------------------------------------------------------
// Vectors / distance kernels
// --------------------------------------------------------------------

TEST(VectorsTest, SquaredL2)
{
    const std::vector<float> a = {1, 2, 3};
    const std::vector<float> b = {4, 6, 3};
    EXPECT_FLOAT_EQ(squaredL2(a, b), 9 + 16 + 0);
}

TEST(VectorsTest, CosineSimilarity)
{
    const std::vector<float> a = {1, 0};
    const std::vector<float> b = {0, 1};
    const std::vector<float> c = {2, 0};
    EXPECT_NEAR(cosineSimilarity(a, b), 0.0, 1e-6);
    EXPECT_NEAR(cosineSimilarity(a, c), 1.0, 1e-6);
    EXPECT_NEAR(cosineSimilarity(a, a), 1.0, 1e-6);
}

TEST(VectorsTest, CosineOfZeroVectorIsZero)
{
    const std::vector<float> zero = {0, 0};
    const std::vector<float> a = {1, 2};
    EXPECT_EQ(cosineSimilarity(zero, a), 0.0f);
}

/**
 * Both kernels against a double-precision reference, at every length
 * class of their 16-float unrolled body and scalar tail, on spans that
 * start 16-byte aligned and one float past it. Every term is at least
 * 0.25 in magnitude, so a skipped or repeated element moves the sum by
 * far more than the float rounding bound allows.
 */
TEST(VectorsTest, KernelsMatchDoubleReferenceAtEveryLengthAndOffset)
{
    Rng rng(2024);
    for (size_t n : {0, 1, 3, 4, 15, 16, 17, 127, 128, 129, 2048}) {
        for (size_t offset : {0, 1}) {
            std::vector<float> a_store(n + offset), b_store(n + offset);
            for (size_t i = 0; i < n + offset; ++i) {
                // Opposite signs: |a - b| >= 1 and |a * b| >= 0.25.
                const float sign = rng.nextBool(0.5) ? 1.0f : -1.0f;
                a_store[i] = sign * float(0.5 + rng.nextDouble());
                b_store[i] = -sign * float(0.5 + rng.nextDouble());
            }
            const std::span<const float> a(a_store.data() + offset, n);
            const std::span<const float> b(b_store.data() + offset, n);

            double l2 = 0, dot = 0, dot_abs = 0;
            for (size_t i = 0; i < n; ++i) {
                const double d = double(a[i]) - double(b[i]);
                l2 += d * d;
                dot += double(a[i]) * double(b[i]);
                dot_abs += std::abs(double(a[i]) * double(b[i]));
            }
            // Each of 16 lanes sums n/16 terms, then the lanes fold and
            // up to 15 tail terms follow: (n/16 + 32) roundings of at
            // most FLT_EPSILON relative to the absolute sum.
            const double ulps = double(n / 16 + 32) * FLT_EPSILON;
            SCOPED_TRACE("n=" + std::to_string(n) +
                         " offset=" + std::to_string(offset));
            EXPECT_NEAR(squaredL2(a, b), l2, ulps * l2);
            EXPECT_NEAR(dotProduct(a, b), dot, ulps * dot_abs);
        }
    }
}

TEST(VectorsTest, FeatureStoreRoundTrip)
{
    FeatureStore store(3);
    EXPECT_EQ(store.add({{1.0f, 2.0f, 3.0f}}), 0u);
    EXPECT_EQ(store.add({{4.0f, 5.0f, 6.0f}}), 1u);
    EXPECT_EQ(store.size(), 2u);
    EXPECT_FLOAT_EQ(store.view(1)[2], 6.0f);
}

TEST(VectorsTest, MergeTopKInterleaves)
{
    std::vector<std::vector<Neighbor>> lists = {
        {{1, 0.1f}, {2, 0.5f}},
        {{3, 0.2f}, {4, 0.9f}},
        {{5, 0.3f}},
    };
    const auto merged = mergeTopK(lists, 3);
    ASSERT_EQ(merged.size(), 3u);
    EXPECT_EQ(merged[0].id, 1u);
    EXPECT_EQ(merged[1].id, 3u);
    EXPECT_EQ(merged[2].id, 5u);
}

TEST(VectorsTest, MergeTopKHandlesEmptyAndShortLists)
{
    std::vector<std::vector<Neighbor>> lists = {{}, {{7, 1.0f}}};
    const auto merged = mergeTopK(lists, 10);
    ASSERT_EQ(merged.size(), 1u);
    EXPECT_EQ(merged[0].id, 7u);
    EXPECT_TRUE(mergeTopK({}, 5).empty());
}

// --------------------------------------------------------------------
// Brute force scanner
// --------------------------------------------------------------------

TEST(BruteForceTest, FindsExactNearest)
{
    FeatureStore store(2);
    store.add({{0.0f, 0.0f}});
    store.add({{1.0f, 1.0f}});
    store.add({{5.0f, 5.0f}});
    BruteForceScanner scanner(store);

    const std::vector<float> query = {0.9f, 0.9f};
    const auto top = scanner.topK(query, 2);
    ASSERT_EQ(top.size(), 2u);
    EXPECT_EQ(top[0].id, 1u);
    EXPECT_EQ(top[1].id, 0u);
}

TEST(BruteForceTest, TopKOfSubset)
{
    FeatureStore store(1);
    for (int i = 0; i < 10; ++i)
        store.add({{float(i)}});
    BruteForceScanner scanner(store);
    const std::vector<float> query = {4.2f};
    const std::vector<uint32_t> candidates = {0, 8, 9};
    const auto top = scanner.topKOf(query, candidates, 2);
    ASSERT_EQ(top.size(), 2u);
    EXPECT_EQ(top[0].id, 8u); // |4.2-8| < |4.2-0| < |4.2-9|.
    EXPECT_EQ(top[1].id, 0u);
}

TEST(BruteForceTest, IgnoresOutOfRangeCandidates)
{
    FeatureStore store(1);
    store.add({{1.0f}});
    BruteForceScanner scanner(store);
    const std::vector<float> query = {0.0f};
    const std::vector<uint32_t> candidates = {0, 999};
    EXPECT_EQ(scanner.topKOf(query, candidates, 5).size(), 1u);
}

// --------------------------------------------------------------------
// LSH
// --------------------------------------------------------------------

/** Clustered corpus where LSH recall is well defined. */
class LshRecallTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        Rng rng(5150);
        constexpr int clusters = 20;
        constexpr int per_cluster = 50;
        std::vector<std::vector<float>> centroids;
        for (int c = 0; c < clusters; ++c) {
            std::vector<float> centroid(dim);
            for (float &x : centroid)
                x = float(rng.nextGaussian(0, 1.0));
            centroids.push_back(centroid);
        }
        for (int c = 0; c < clusters; ++c) {
            for (int i = 0; i < per_cluster; ++i) {
                std::vector<float> vec(dim);
                for (size_t d = 0; d < dim; ++d) {
                    vec[d] = centroids[c][d] +
                             float(rng.nextGaussian(0, 0.08));
                }
                store.add(vec);
            }
        }
    }

    static constexpr size_t dim = 32;
    FeatureStore store{dim};
};

TEST_F(LshRecallTest, CandidatesContainTrueNeighbor)
{
    LshParams params;
    params.numTables = 10;
    params.hashesPerTable = 8;
    params.bucketWidth = 2.0f;
    params.multiProbes = 8;
    LshIndex index(dim, params);

    // Single "leaf" so ids are global.
    for (uint64_t i = 0; i < store.size(); ++i)
        index.insert(store.view(i), {0, uint32_t(i)});

    BruteForceScanner scanner(store);
    Rng rng(99);
    int hits = 0;
    constexpr int queries = 100;
    for (int q = 0; q < queries; ++q) {
        // Query = a perturbed corpus point.
        const uint64_t base = rng.nextBounded(store.size());
        std::vector<float> query(store.view(base).begin(),
                                 store.view(base).end());
        for (float &x : query)
            x += float(rng.nextGaussian(0, 0.02));

        const auto truth = scanner.topK(query, 1);
        const auto candidates = index.query(query);
        const auto it = candidates.find(0);
        if (it == candidates.end())
            continue;
        if (std::find(it->second.begin(), it->second.end(),
                      uint32_t(truth[0].id)) != it->second.end()) {
            ++hits;
        }
    }
    // The paper tunes LSH for >= 93% accuracy; our recall target on
    // this clustered set is conservative.
    EXPECT_GE(hits, 93) << "recall " << hits << "/" << queries;
}

TEST_F(LshRecallTest, CandidateSetIsMuchSmallerThanCorpus)
{
    LshParams params;
    params.numTables = 6;
    params.hashesPerTable = 10;
    params.bucketWidth = 1.5f;
    LshIndex index(dim, params);
    for (uint64_t i = 0; i < store.size(); ++i)
        index.insert(store.view(i), {0, uint32_t(i)});

    Rng rng(7);
    size_t total_candidates = 0;
    constexpr int queries = 50;
    for (int q = 0; q < queries; ++q) {
        const auto query = store.view(rng.nextBounded(store.size()));
        std::vector<float> qv(query.begin(), query.end());
        const auto candidates = index.query(qv);
        for (const auto &[leaf, ids] : candidates)
            total_candidates += ids.size();
    }
    // Search-space pruning: far fewer candidates than corpus size.
    EXPECT_LT(total_candidates / queries, store.size() / 2);
}

TEST(LshTest, EntriesGroupedByLeaf)
{
    constexpr size_t dim = 8;
    LshParams params;
    params.numTables = 4;
    params.hashesPerTable = 4;
    params.bucketWidth = 8.0f; // Wide: everything collides.
    LshIndex index(dim, params);

    const std::vector<float> vec(dim, 0.5f);
    index.insert(vec, {2, 10});
    index.insert(vec, {5, 20});

    const auto candidates = index.query(vec);
    ASSERT_TRUE(candidates.count(2));
    ASSERT_TRUE(candidates.count(5));
    EXPECT_EQ(candidates.at(2), (std::vector<uint32_t>{10}));
    EXPECT_EQ(candidates.at(5), (std::vector<uint32_t>{20}));
}

TEST(LshTest, DeduplicatesAcrossTables)
{
    constexpr size_t dim = 4;
    LshParams params;
    params.numTables = 8; // Same point lands in 8 tables.
    params.hashesPerTable = 2;
    params.bucketWidth = 16.0f;
    LshIndex index(dim, params);
    const std::vector<float> vec(dim, 1.0f);
    index.insert(vec, {0, 1});
    const auto candidates = index.query(vec);
    ASSERT_EQ(candidates.size(), 1u);
    EXPECT_EQ(candidates.at(0).size(), 1u); // Not 8.
}

TEST(LshTest, MeanBucketSizeCountsNonEmptyBuckets)
{
    constexpr size_t dim = 1;
    LshParams params;
    params.numTables = 4;
    params.hashesPerTable = 2;
    params.bucketWidth = 1.0f;
    LshIndex index(dim, params);
    EXPECT_EQ(index.meanBucketSize(), 0.0);

    // Two points share a bucket in every table; the third, a thousand
    // bucket widths away, has one to itself: buckets of 2 and 1.
    index.insert(std::vector<float>{0.0f}, {0, 1});
    index.insert(std::vector<float>{0.0f}, {0, 2});
    EXPECT_EQ(index.meanBucketSize(), 2.0);
    index.insert(std::vector<float>{1000.0f}, {1, 3});
    EXPECT_EQ(index.meanBucketSize(), 1.5);
}

/**
 * The E2LSH index as std::unordered_map buckets of std::vector entries,
 * with the same projections (drawn in LshIndex's order from the same
 * seed), keys, multi-probe order and deduplication: the reference for
 * LshIndex's flat tables.
 */
class ReferenceLsh
{
  public:
    ReferenceLsh(size_t dimension, LshParams params)
        : dim(dimension), params(params), tables(size_t(params.numTables))
    {
        Rng rng(params.seed);
        const size_t rows =
            size_t(params.numTables) * size_t(params.hashesPerTable);
        projections.resize(rows * dim);
        for (float &coefficient : projections)
            coefficient = float(rng.nextGaussian());
        offsets.resize(rows);
        for (float &offset : offsets)
            offset = float(rng.nextDouble()) * params.bucketWidth;
    }

    void
    insert(std::span<const float> vector, LshEntry entry)
    {
        for (size_t t = 0; t < tables.size(); ++t)
            tables[t][key(quantize(project(t, vector)))].push_back(entry);
    }

    std::unordered_map<uint32_t, std::vector<uint32_t>>
    query(std::span<const float> vector) const
    {
        std::unordered_set<uint64_t> seen;
        std::unordered_map<uint32_t, std::vector<uint32_t>> by_leaf;
        auto admit = [&](size_t t, const std::vector<int32_t> &cell) {
            const auto it = tables[t].find(key(cell));
            if (it == tables[t].end())
                return;
            for (const LshEntry &entry : it->second) {
                if (seen.insert((uint64_t(entry.leaf) << 32) |
                                entry.pointId)
                        .second)
                    by_leaf[entry.leaf].push_back(entry.pointId);
            }
        };
        for (size_t t = 0; t < tables.size(); ++t) {
            const std::vector<float> raw = project(t, vector);
            std::vector<int32_t> cell = quantize(raw);
            admit(t, cell);
            struct Probe
            {
                size_t coordinate;
                int32_t delta;
                float boundaryGap;
            };
            std::vector<Probe> probes;
            for (size_t j = 0; j < raw.size(); ++j) {
                const float within =
                    raw[j] / params.bucketWidth - float(cell[j]);
                probes.push_back({j, -1, within});
                probes.push_back({j, +1, 1.0f - within});
            }
            std::sort(probes.begin(), probes.end(),
                      [](const Probe &a, const Probe &b) {
                          return a.boundaryGap < b.boundaryGap;
                      });
            const size_t limit = std::min(
                probes.size(), size_t(std::max(params.multiProbes, 0)));
            for (size_t p = 0; p < limit; ++p) {
                cell[probes[p].coordinate] += probes[p].delta;
                admit(t, cell);
                cell[probes[p].coordinate] -= probes[p].delta;
            }
        }
        return by_leaf;
    }

    /** Non-empty buckets in one table. */
    size_t
    buckets(size_t table) const
    {
        return tables[table].size();
    }

  private:
    std::vector<float>
    project(size_t table, std::span<const float> vector) const
    {
        const size_t k = size_t(params.hashesPerTable);
        std::vector<float> raw(k);
        for (size_t j = 0; j < k; ++j) {
            const size_t row = table * k + j;
            raw[j] = dotProduct({projections.data() + row * dim, dim},
                                vector) +
                     offsets[row];
        }
        return raw;
    }

    std::vector<int32_t>
    quantize(const std::vector<float> &raw) const
    {
        std::vector<int32_t> cell;
        for (float projection : raw)
            cell.push_back(
                int32_t(std::floor(projection / params.bucketWidth)));
        return cell;
    }

    static uint64_t
    key(const std::vector<int32_t> &cell)
    {
        uint64_t key = 0x243F6A8885A308D3ull;
        for (int32_t q : cell) {
            key ^= uint64_t(uint32_t(q)) + 0x9E3779B97F4A7C15ull +
                   (key << 6) + (key >> 2);
            key *= 0xBF58476D1CE4E5B9ull;
            key ^= key >> 29;
        }
        return key;
    }

    size_t dim;
    LshParams params;
    std::vector<float> projections;
    std::vector<float> offsets;
    std::vector<std::unordered_map<uint64_t, std::vector<LshEntry>>>
        tables;
};

TEST(LshTest, FlatTablesMatchTheMapOfVectorsReference)
{
    GmmOptions gmm;
    gmm.numVectors = 3000;
    gmm.dimension = 24;
    gmm.clusters = 12;
    gmm.seed = 5;
    GmmDataset dataset(gmm);

    // Few, wide hashes: buckets of many points, so per-bucket order
    // matters, and hundreds of buckets per table, so each flat table
    // (16 slots at first, doubled whenever it passes half full) is
    // rebuilt several times while it fills.
    LshParams params;
    params.numTables = 6;
    params.hashesPerTable = 4;
    params.bucketWidth = 2.0f;
    params.multiProbes = 6;
    params.seed = 9;
    constexpr uint32_t leaves = 4;
    LshIndex index(gmm.dimension, params);
    ReferenceLsh reference(gmm.dimension, params);
    for (uint64_t i = 0; i < dataset.vectors().size(); ++i) {
        const LshEntry entry{uint32_t(i % leaves), uint32_t(i / leaves)};
        index.insert(dataset.vectors().view(i), entry);
        reference.insert(dataset.vectors().view(i), entry);
    }

    size_t buckets = 0;
    for (size_t t = 0; t < size_t(params.numTables); ++t) {
        EXPECT_GT(reference.buckets(t), 64u) << "table " << t;
        buckets += reference.buckets(t);
    }
    EXPECT_DOUBLE_EQ(index.meanBucketSize(),
                     double(dataset.vectors().size() *
                            size_t(params.numTables)) /
                         double(buckets));
    EXPECT_GT(index.meanBucketSize(), 4.0);

    Rng rng(31);
    size_t candidates = 0;
    for (int q = 0; q < 200; ++q) {
        const std::vector<float> query = dataset.sampleQuery(rng);
        const auto expected = reference.query(query);
        const auto got = index.query(query);
        ASSERT_EQ(got.size(), expected.size()) << "query " << q;
        for (const auto &[leaf, ids] : expected) {
            ASSERT_TRUE(got.count(leaf)) << "query " << q;
            EXPECT_EQ(got.at(leaf), ids)
                << "query " << q << " leaf " << leaf;
            candidates += ids.size();
        }
    }
    EXPECT_GT(candidates, 200u * 50);
}

// --------------------------------------------------------------------
// Posting lists
// --------------------------------------------------------------------

std::vector<uint32_t>
naiveIntersect(std::vector<uint32_t> a, std::vector<uint32_t> b)
{
    std::vector<uint32_t> out;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(out));
    return out;
}

TEST(PostingListTest, SeekFindsLowerBound)
{
    PostingList list({2, 4, 6, 8, 10, 12, 14, 16, 18, 20}, 3);
    EXPECT_EQ(list.docs()[list.seek(7, 0)], 8u);
    EXPECT_EQ(list.docs()[list.seek(2, 0)], 2u);
    EXPECT_EQ(list.seek(21, 0), list.size());
}

TEST(PostingListTest, ContainsViaSkips)
{
    std::vector<uint32_t> docs;
    for (uint32_t i = 0; i < 1000; i += 3)
        docs.push_back(i);
    PostingList list(docs);
    EXPECT_TRUE(list.contains(999));
    EXPECT_TRUE(list.contains(0));
    EXPECT_FALSE(list.contains(1000));
    EXPECT_FALSE(list.contains(500)); // 500 % 3 != 0.
}

TEST(PostingListTest, EmptyListBehaves)
{
    PostingList list;
    EXPECT_TRUE(list.empty());
    EXPECT_FALSE(list.contains(1));
}

/** Randomized equivalence of both intersection algorithms. */
class IntersectionTest
    : public ::testing::TestWithParam<std::pair<size_t, size_t>>
{};

TEST_P(IntersectionTest, MatchesNaiveReference)
{
    const auto [size_a, size_b] = GetParam();
    Rng rng(size_a * 31 + size_b);
    std::set<uint32_t> set_a, set_b;
    while (set_a.size() < size_a)
        set_a.insert(uint32_t(rng.nextBounded(size_a * 4 + 8)));
    while (set_b.size() < size_b)
        set_b.insert(uint32_t(rng.nextBounded(size_b * 4 + 8)));

    std::vector<uint32_t> docs_a(set_a.begin(), set_a.end());
    std::vector<uint32_t> docs_b(set_b.begin(), set_b.end());
    const auto expected = naiveIntersect(docs_a, docs_b);

    PostingList list_a(docs_a), list_b(docs_b);
    EXPECT_EQ(intersectLinear(list_a, list_b), expected);
    EXPECT_EQ(intersectWithSkips(list_a, list_b), expected);
    EXPECT_EQ(intersectWithSkips(list_b, list_a), expected);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, IntersectionTest,
    ::testing::Values(std::pair<size_t, size_t>{1, 1},
                      std::pair<size_t, size_t>{1, 1000},
                      std::pair<size_t, size_t>{10, 10},
                      std::pair<size_t, size_t>{100, 5000},
                      std::pair<size_t, size_t>{1000, 1000},
                      std::pair<size_t, size_t>{5000, 37}));

TEST(IntersectionTest, MultiListSmallestFirst)
{
    PostingList a({1, 2, 3, 4, 5, 6, 7, 8});
    PostingList b({2, 4, 6, 8, 10});
    PostingList c({4, 8, 12});
    EXPECT_EQ(intersectAll({&a, &b, &c}),
              (std::vector<uint32_t>{4, 8}));
    EXPECT_EQ(intersectAll({&a, &b, &c}, /*use_skips=*/false),
              (std::vector<uint32_t>{4, 8}));
}

TEST(IntersectionTest, DisjointListsAreEmpty)
{
    PostingList a({1, 3, 5});
    PostingList b({2, 4, 6});
    EXPECT_TRUE(intersectAll({&a, &b}).empty());
}

TEST(IntersectionTest, NullOrEmptyListShortCircuits)
{
    PostingList a({1, 2});
    PostingList empty;
    EXPECT_TRUE(intersectAll({&a, &empty}).empty());
    EXPECT_TRUE(intersectAll({&a, nullptr}).empty());
}

TEST(UnionTest, MergesAndDeduplicates)
{
    EXPECT_EQ(unionAll({{1, 3, 5}, {2, 3, 4}, {5, 6}}),
              (std::vector<uint32_t>{1, 2, 3, 4, 5, 6}));
    EXPECT_TRUE(unionAll({}).empty());
    EXPECT_EQ(unionAll({{}, {7}}), (std::vector<uint32_t>{7}));
}

// --------------------------------------------------------------------
// Inverted index
// --------------------------------------------------------------------

TEST(InvertedIndexTest, BuildsAndIntersects)
{
    // doc0: {1,2}, doc1: {2,3}, doc2: {1,2,3}.
    const std::vector<std::vector<uint32_t>> docs = {
        {1, 2}, {2, 3}, {1, 2, 3}};
    InvertedIndex index(docs, {10, 11, 12});

    const std::vector<uint32_t> query = {1, 2};
    EXPECT_EQ(index.intersectTerms(query),
              (std::vector<uint32_t>{10, 12}));
    const std::vector<uint32_t> all = {1, 2, 3};
    EXPECT_EQ(index.intersectTerms(all), (std::vector<uint32_t>{12}));
}

TEST(InvertedIndexTest, AbsentTermYieldsEmpty)
{
    InvertedIndex index({{1}}, {0});
    const std::vector<uint32_t> query = {99};
    EXPECT_TRUE(index.intersectTerms(query).empty());
}

TEST(InvertedIndexTest, StopListDropsMostFrequentTerms)
{
    // Term 7 appears in every doc; term 1 in one.
    std::vector<std::vector<uint32_t>> docs;
    for (uint32_t d = 0; d < 20; ++d) {
        std::vector<uint32_t> terms = {7, 7, 7};
        if (d == 0)
            terms.push_back(1);
        docs.push_back(terms);
    }
    std::vector<uint32_t> ids(20);
    for (uint32_t d = 0; d < 20; ++d)
        ids[d] = d;

    InvertedIndex index(docs, ids, /*stop_terms=*/1);
    EXPECT_TRUE(index.isStopWord(7));
    EXPECT_EQ(index.postings(7), nullptr);
    // Query of {7, 1}: 7 is ignored, so only term 1 constrains.
    const std::vector<uint32_t> query = {7, 1};
    EXPECT_EQ(index.intersectTerms(query), (std::vector<uint32_t>{0}));
    // Query of only stop words matches nothing (no selectivity).
    const std::vector<uint32_t> stop_only = {7};
    EXPECT_TRUE(index.intersectTerms(stop_only).empty());
}

TEST(InvertedIndexTest, DuplicateTermsInDocCountOnce)
{
    InvertedIndex index({{5, 5, 5}}, {3});
    const PostingList *list = index.postings(5);
    ASSERT_NE(list, nullptr);
    EXPECT_EQ(list->docs(), (std::vector<uint32_t>{3}));
}

} // namespace
} // namespace musuite
