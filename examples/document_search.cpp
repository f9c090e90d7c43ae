/**
 * @file
 * Document retrieval by posting-list set algebra (the Set Algebra
 * scenario, paper §III-C): conjunctive web-search-style queries over
 * a sharded inverted index.
 *
 * Shows the full flow: Zipf-distributed synthetic corpus ->
 * stop-list construction -> sharded inverted indexes on the leaves ->
 * mid-tier fan-out, per-shard skip-list intersection, and union
 * merge — then verifies a few queries against a naive full scan.
 *
 * Build & run:  ./build/examples/document_search
 */

#include <algorithm>
#include <iostream>

#include "harness/deployment.h"
#include "rpc/client.h"
#include "services/setalgebra/proto.h"

using namespace musuite;

int
main()
{
    DeploymentOptions options;
    options.leafShards = 4;
    options.corpus.numDocuments = 10000; // "4.3M WikiText docs" scaled.
    options.corpus.vocabulary = 12000;
    options.corpus.meanDocLength = 90;
    options.stopTerms = 0; // Keep results exactly checkable.
    auto service =
        ServiceDeployment::create(ServiceKind::SetAlgebra, options);
    std::cout << "Set Algebra is up: "
              << options.corpus.numDocuments << " documents across "
              << service->leafCount() << " shards\n";

    rpc::RpcClient client(service->midTierPort());

    // A private copy of the corpus for ground-truth checking (the
    // deployment builds its own from the same seed).
    TextCorpus reference(options.corpus);

    Rng rng(2718);
    int verified = 0;
    constexpr int queries = 15;
    for (int q = 0; q < queries; ++q) {
        setalgebra::SearchQuery query;
        query.terms = reference.sampleQuery(rng, 3);

        auto result =
            client.callSync(setalgebra::kSearch, encodeMessage(query));
        if (!result.isOk()) {
            std::cerr << "query failed: " << result.status().toString()
                      << "\n";
            return 1;
        }
        setalgebra::PostingReply reply;
        decodeMessage(result.payload(), reply);

        // Naive scan ground truth.
        std::vector<uint32_t> expected;
        for (uint32_t d = 0; d < reference.size(); ++d) {
            const auto &doc = reference.documents()[d];
            bool all = true;
            for (uint32_t term : query.terms) {
                if (std::find(doc.begin(), doc.end(), term) ==
                    doc.end()) {
                    all = false;
                    break;
                }
            }
            if (all)
                expected.push_back(d);
        }

        const bool match = reply.docIds == expected;
        verified += match;
        std::cout << "query " << q << ": " << query.terms.size()
                  << " terms -> " << reply.docIds.size()
                  << " documents " << (match ? "(verified)" : "(MISMATCH)")
                  << "\n";
    }

    std::cout << verified << "/" << queries
              << " queries verified against naive scan\n";
    return verified == queries ? 0 : 1;
}
