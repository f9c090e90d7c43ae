/**
 * @file
 * Movie-rating prediction (the Recommend scenario, paper §III-D):
 * user-based collaborative filtering over a sharded utility matrix.
 *
 * Shows offline sparse-matrix composition + NMF factorization on
 * each leaf, online {user, item} queries through the mid-tier, the
 * averaging merge, and an evaluation: CF predictions on held-out
 * cells must beat the predict-the-global-mean baseline (the planted
 * latent structure makes the "right" answers known).
 *
 * Build & run:  ./build/examples/movie_recommend
 */

#include <cmath>
#include <iostream>

#include "dataset/datasets.h"
#include "harness/deployment.h"
#include "rpc/client.h"
#include "services/recommend/proto.h"

using namespace musuite;

int
main()
{
    DeploymentOptions options;
    options.leafShards = 4;
    options.ratings.users = 300;   // "MovieLens 10K tuples" scaled.
    options.ratings.items = 250;
    options.ratings.meanRatingsPerUser = 18;
    options.ratings.latentRank = 5;
    options.ratings.noiseStddev = 0.1;
    auto service =
        ServiceDeployment::create(ServiceKind::Recommend, options);
    std::cout << "Recommend is up: collaborative filtering across "
              << service->leafCount() << " matrix shards\n";

    rpc::RpcClient client(service->midTierPort());

    // Rebuild the same data set (same seed) to know the planted
    // ground truth for held-out cells.
    RatingsDataset reference = makeRatingsDataset(options.ratings, 400);
    const double global_mean = reference.ratings.globalMean();

    // Recreating the generator's noiseless latent structure is not
    // exposed, so evaluate against a strong observable proxy: for
    // held-out (user, item), the mean rating of that *item* by other
    // users approximates its true quality.
    auto item_mean = [&](uint32_t item) {
        double sum = 0;
        int n = 0;
        for (const Rating &rating : reference.ratings.observed()) {
            if (rating.item == item) {
                sum += rating.value;
                ++n;
            }
        }
        return n ? sum / n : global_mean;
    };

    double cf_error = 0, baseline_error = 0;
    int evaluated = 0;
    for (size_t q = 0; q < 200 && q < reference.heldOutQueries.size();
         ++q) {
        const auto [user, item] = reference.heldOutQueries[q];
        recommend::RatingQuery query{user, item};
        auto result =
            client.callSync(recommend::kPredict, encodeMessage(query));
        if (!result.isOk())
            continue;
        recommend::RatingReply reply;
        if (!decodeMessage(result.payload(), reply))
            continue;

        const double target = item_mean(item);
        cf_error += (reply.rating - target) * (reply.rating - target);
        baseline_error +=
            (global_mean - target) * (global_mean - target);
        ++evaluated;

        if (q < 5) {
            std::cout << "user " << user << ", movie " << item
                      << ": predicted " << reply.rating
                      << " (item mean " << target << ")\n";
        }
    }

    const double cf_rmse = std::sqrt(cf_error / evaluated);
    const double baseline_rmse =
        std::sqrt(baseline_error / evaluated);
    std::cout << "evaluated " << evaluated << " held-out pairs\n"
              << "CF RMSE vs item-mean target:       " << cf_rmse
              << "\n"
              << "global-mean-baseline RMSE:         " << baseline_rmse
              << "\n";
    const bool ok = cf_rmse < baseline_rmse;
    std::cout << (ok ? "collaborative filtering beats the baseline"
                     : "FAILED: CF no better than global mean")
              << "\n";
    return ok ? 0 : 1;
}
