/**
 * @file
 * Quickstart: bring up a complete three-tier µSuite service in one
 * process and query it.
 *
 * This is the 60-second tour of the public API:
 *   1. ServiceDeployment::create() builds a service — leaf
 *      microservers (each its own murpc server on a loopback port),
 *      the mid-tier microserver, and the channels between them.
 *   2. A front-end is just an RpcClient pointed at the mid-tier.
 *   3. Requests/responses are plain structs with encode()/decode().
 *
 * Build & run:  ./build/examples/quickstart
 */

#include <iostream>

#include "dataset/datasets.h"
#include "harness/deployment.h"
#include "rpc/client.h"
#include "services/hdsearch/proto.h"

using namespace musuite;

int
main()
{
    // 1. Deploy HDSearch: 4 sharded leaves + mid-tier, all wired
    //    over loopback TCP exactly like the paper's testbed (scaled
    //    down so it builds in about a second).
    DeploymentOptions options;
    options.leafShards = 4;
    options.gmm.numVectors = 2000; // Synthetic "image" corpus.
    options.gmm.dimension = 64;    // Paper uses 2048-d Inception.
    auto service =
        ServiceDeployment::create(ServiceKind::HdSearch, options);
    std::cout << "HDSearch is up: mid-tier on 127.0.0.1:"
              << service->midTierPort() << ", "
              << service->leafCount() << " leaf shards\n";

    // 2. A front-end client (what the paper's presentation tier
    //    would use after feature extraction).
    rpc::RpcClient front_end(service->midTierPort());

    // 3. Issue a k-NN query: find the 3 images most similar to a
    //    query image. Deployments are seeded, so regenerating the
    //    data set here yields queries that actually resemble corpus
    //    images (like a user's photo resembling indexed ones).
    GmmDataset corpus(options.gmm);
    Rng rng(2024);
    hdsearch::NNQuery query;
    query.features = corpus.sampleQuery(rng);
    query.k = 3;

    auto result = front_end.callSync(hdsearch::kNearestNeighbors,
                                     encodeMessage(query));
    if (!result.isOk()) {
        std::cerr << "query failed: " << result.status().toString()
                  << "\n";
        return 1;
    }

    hdsearch::NNResponse response;
    if (!decodeMessage(result.payload(), response)) {
        std::cerr << "malformed response\n";
        return 1;
    }

    std::cout << "top-" << query.k << " neighbours:\n";
    for (size_t i = 0; i < response.pointIds.size(); ++i) {
        const uint32_t leaf = uint32_t(response.pointIds[i] >> 32);
        const uint32_t local = uint32_t(response.pointIds[i]);
        std::cout << "  #" << i + 1 << "  leaf " << leaf << ", point "
                  << local << ", squared-L2 distance "
                  << response.distances[i] << "\n";
    }

    // Asynchronous calls work too: this is how the mid-tier itself
    // talks to its leaves.
    bool done = false;
    CountdownLatch latch(1);
    front_end.call(hdsearch::kNearestNeighbors, encodeMessage(query),
                   [&](const Status &status, std::string_view) {
                       done = status.isOk();
                       latch.countDown();
                   });
    latch.wait();
    std::cout << "async round-trip: " << (done ? "ok" : "failed")
              << "\n";
    return done ? 0 : 1;
}
