/**
 * @file
 * Image-similarity search walk-through (the HDSearch scenario from
 * the paper's §III-A), built from the individual components rather
 * than the deployment helper, so each stage of Fig. 3 is visible:
 *
 *   - a synthetic "image corpus" of feature vectors (the Open Images
 *     + Inception V3 stand-in),
 *   - offline index construction: LSH tables over {leaf, point-id}
 *     tuples, corpus sharded across leaf microservers,
 *   - the online request path: LSH lookup -> fan-out -> leaf distance
 *     refinement -> distance-sorted merge,
 *   - an accuracy evaluation against brute-force ground truth using
 *     the paper's cosine-similarity metric (target >= 93%).
 *
 * Build & run:  ./build/examples/image_search
 */

#include <iostream>

#include "dataset/datasets.h"
#include "rpc/client.h"
#include "rpc/server.h"
#include "services/hdsearch/leaf.h"
#include "services/hdsearch/midtier.h"
#include "services/hdsearch/proto.h"

using namespace musuite;

int
main()
{
    // ----- Offline: corpus and index construction -----------------
    GmmOptions gmm;
    gmm.numVectors = 5000; // "500K images" scaled down.
    gmm.dimension = 128;   // "2048-d Inception features" scaled down.
    gmm.clusters = 40;
    gmm.clusterStddev = 0.1;
    GmmDataset corpus(gmm);
    std::cout << "corpus: " << corpus.vectors().size() << " images x "
              << corpus.vectors().dimension() << "-d features\n";

    LshParams lsh;
    lsh.numTables = 10;     // L hash tables...
    lsh.hashesPerTable = 8; // ...of k concatenated projections.
    lsh.bucketWidth = 2.0f;
    lsh.multiProbes = 8;    // Probe near-miss buckets for recall.
    constexpr uint32_t num_leaves = 4;
    auto built = hdsearch::buildShardedIndex(corpus.vectors(),
                                             num_leaves, lsh);
    std::cout << "LSH: " << lsh.numTables << " tables, mean bucket "
              << built.midTierIndex->meanBucketSize() << " entries\n";

    // ----- Bring up the tiers --------------------------------------
    std::vector<std::unique_ptr<rpc::Server>> leaf_servers;
    std::vector<std::unique_ptr<hdsearch::Leaf>> leaves;
    std::vector<std::shared_ptr<rpc::Channel>> channels;
    for (uint32_t i = 0; i < num_leaves; ++i) {
        rpc::ServerOptions server_options;
        server_options.name = "leaf" + std::to_string(i);
        auto server = std::make_unique<rpc::Server>(server_options);
        leaves.push_back(std::make_unique<hdsearch::Leaf>(
            std::move(built.leafShards[i])));
        leaves.back()->registerWith(*server);
        server->start();
        channels.push_back(
            std::make_shared<rpc::RpcClient>(server->port()));
        leaf_servers.push_back(std::move(server));
    }

    hdsearch::MidTier mid_tier(std::move(built.midTierIndex),
                               channels);
    rpc::Server mid_server;
    mid_tier.registerWith(mid_server);
    mid_server.start();
    rpc::RpcClient front_end(mid_server.port());

    // ----- Online: queries + accuracy evaluation -------------------
    BruteForceScanner ground_truth(corpus.vectors());
    Rng rng(7);
    constexpr int num_queries = 100;
    double total_similarity = 0.0;
    int exact_hits = 0;

    for (int q = 0; q < num_queries; ++q) {
        hdsearch::NNQuery query;
        query.features = corpus.sampleQuery(rng);
        query.k = 1;
        auto result = front_end.callSync(hdsearch::kNearestNeighbors,
                                         encodeMessage(query));
        if (!result.isOk())
            continue;
        hdsearch::NNResponse response;
        if (!decodeMessage(result.payload(), response) ||
            response.pointIds.empty()) {
            continue;
        }

        // Global id -> original corpus index (round-robin shards).
        const uint32_t leaf = uint32_t(response.pointIds[0] >> 32);
        const uint32_t local = uint32_t(response.pointIds[0]);
        const uint64_t got = uint64_t(local) * num_leaves + leaf;

        const auto exact = ground_truth.topK(query.features, 1);
        exact_hits += (got == exact[0].id);
        total_similarity += double(
            cosineSimilarity(corpus.vectors().view(got),
                             corpus.vectors().view(exact[0].id)));
    }

    const double accuracy = total_similarity / num_queries;
    std::cout << "queries: " << num_queries << "\n"
              << "exact-NN hits: " << exact_hits << "\n"
              << "mean cosine similarity vs ground truth: " << accuracy
              << " (paper tunes LSH for >= 0.93)\n";

    mid_server.stop();
    channels.clear();
    for (auto &server : leaf_servers)
        server->stop();
    return accuracy >= 0.93 ? 0 : 1;
}
