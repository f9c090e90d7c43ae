/**
 * @file
 * Implementation of the per-service deployments.
 */

#include "harness/deployment.h"

#include <fstream>
#include <sys/utsname.h>
#include <thread>

#include "base/logging.h"
#include "services/hdsearch/leaf.h"
#include "services/hdsearch/midtier.h"
#include "services/hdsearch/proto.h"
#include "services/recommend/leaf.h"
#include "services/recommend/midtier.h"
#include "services/recommend/proto.h"
#include "services/router/leaf.h"
#include "services/router/proto.h"
#include "services/setalgebra/leaf.h"
#include "services/setalgebra/midtier.h"
#include "services/setalgebra/proto.h"

namespace musuite {

const char *
serviceName(ServiceKind kind)
{
    switch (kind) {
      case ServiceKind::HdSearch:   return "HDSearch";
      case ServiceKind::Router:     return "Router";
      case ServiceKind::SetAlgebra: return "Set Algebra";
      case ServiceKind::Recommend:  return "Recommend";
    }
    return "?";
}

std::vector<ServiceKind>
allServices()
{
    return {ServiceKind::HdSearch, ServiceKind::Router,
            ServiceKind::SetAlgebra, ServiceKind::Recommend};
}

void
ServiceDeployment::killLeaf(size_t i)
{
    MUSUITE_CHECK(i < leafServers.size()) << "no such leaf";
    leafServers[i]->stop();
}

void
ServiceDeployment::shutdownTiers()
{
    if (midTier)
        midTier->stop();
    leafChannels.clear();
    for (auto &server : leafServers)
        server->stop();
}

namespace {

/** Shared wiring: start leaf servers and dial them. */
struct TierWiring
{
    /**
     * Start `count` leaf servers using `register_leaf(i, server)` to
     * attach handlers, then open one client channel to each. The
     * channels share one CompletionPool: the mid-tier's single pool
     * of response threads (Fig. 8).
     */
    static void
    buildLeaves(const DeploymentOptions &options, uint32_t count,
                const std::function<void(uint32_t, rpc::Server &)>
                    &register_leaf,
                std::vector<std::unique_ptr<rpc::Server>> &servers,
                std::vector<std::shared_ptr<rpc::Channel>> &channels)
    {
        const rpc::ClientOptions &leaf_client = options.midToLeafClient;
        auto pool = std::make_shared<rpc::CompletionPool>(
            leaf_client.completionThreads, leaf_client.name);
        for (uint32_t i = 0; i < count; ++i) {
            rpc::ServerOptions server_options = options.leafServer;
            server_options.name = "leaf" + std::to_string(i);
            auto server = std::make_unique<rpc::Server>(server_options);
            register_leaf(i, *server);
            server->start();

            channels.push_back(std::make_shared<rpc::RpcClient>(
                server->port(), pool, leaf_client));
            servers.push_back(std::move(server));
        }
    }

    static std::unique_ptr<rpc::Server>
    buildMidTier(const DeploymentOptions &options)
    {
        rpc::ServerOptions server_options = options.midTierServer;
        if (server_options.name == "mid")
            server_options.name = "midtier";
        return std::make_unique<rpc::Server>(server_options);
    }
};

// --------------------------------------------------------------------
// HDSearch
// --------------------------------------------------------------------

class HdSearchDeployment : public ServiceDeployment
{
  public:
    explicit HdSearchDeployment(const DeploymentOptions &options)
        : options(options), dataset(options.gmm)
    {
        serviceKind = ServiceKind::HdSearch;
        auto built = hdsearch::buildShardedIndex(
            dataset.vectors(), options.leafShards, options.lsh);

        std::vector<FeatureStore> &shards = built.leafShards;
        TierWiring::buildLeaves(
            options, options.leafShards,
            [&](uint32_t i, rpc::Server &server) {
                leaves.push_back(std::make_unique<hdsearch::Leaf>(
                    std::move(shards[i])));
                leaves.back()->registerWith(server);
            },
            leafServers, leafChannels);

        logic = std::make_unique<hdsearch::MidTier>(
            std::move(built.midTierIndex), leafChannels,
            options.midTierFanout);
        midTier = TierWiring::buildMidTier(options);
        logic->registerWith(*midTier);
        midTier->start();
    }

    ~HdSearchDeployment() override { shutdownTiers(); }

    uint32_t
    frontEndMethod() const override
    {
        return hdsearch::kNearestNeighbors;
    }

    std::string
    sampleRequestBody(Rng &rng) override
    {
        hdsearch::NNQuery query;
        query.features = dataset.sampleQuery(rng);
        query.k = options.searchK;
        return encodeMessage(query);
    }

    bool
    validateResponse(std::string_view payload) const override
    {
        hdsearch::NNResponse response;
        return decodeMessage(payload, response);
    }

    bool
    responseDegraded(std::string_view payload) const override
    {
        hdsearch::NNResponse response;
        return decodeMessage(payload, response) && response.degraded;
    }

  private:
    DeploymentOptions options;
    GmmDataset dataset;
    std::vector<std::unique_ptr<hdsearch::Leaf>> leaves;
    std::unique_ptr<hdsearch::MidTier> logic;
};

// --------------------------------------------------------------------
// Router
// --------------------------------------------------------------------

class RouterDeployment : public ServiceDeployment
{
  public:
    explicit RouterDeployment(const DeploymentOptions &options)
        : options(options), workload(options.kv)
    {
        serviceKind = ServiceKind::Router;
        const uint32_t shards = options.routerDefaultShards
                                    ? 16
                                    : options.leafShards;

        TierWiring::buildLeaves(
            options, shards,
            [&](uint32_t, rpc::Server &server) {
                leaves.push_back(std::make_unique<router::Leaf>());
                leaves.back()->registerWith(server);
            },
            leafServers, leafChannels);

        logic = std::make_unique<router::MidTier>(
            leafChannels, options.routerMidTier, options.midTierFanout);
        midTier = TierWiring::buildMidTier(options);
        logic->registerWith(*midTier);
        midTier->start();

        prepopulate();
    }

    ~RouterDeployment() override { shutdownTiers(); }

    uint32_t frontEndMethod() const override { return router::kRoute; }

    std::string
    sampleRequestBody(Rng &rng) override
    {
        const KvOp op = workload.sampleOp(rng);
        router::KvRequest request;
        request.op = op.isGet ? router::Op::Get : router::Op::Set;
        request.key = op.key;
        request.value = op.value;
        return encodeMessage(request);
    }

    bool
    validateResponse(std::string_view payload) const override
    {
        router::KvReply reply;
        return decodeMessage(payload, reply);
    }

    bool
    responseDegraded(std::string_view payload) const override
    {
        router::KvReply reply;
        return decodeMessage(payload, reply) && reply.degraded;
    }

    router::MidTier &routerLogic() { return *logic; }
    router::Leaf &leafObject(size_t i) { return *leaves[i]; }
    const KvWorkload &kvWorkload() const { return workload; }

  private:
    void
    prepopulate()
    {
        // Seed the replicated stores directly (we own the leaf
        // objects) so gets under the Zipf workload mostly hit, as
        // they would in a warmed-up memcached fleet.
        const size_t count =
            std::min<size_t>(options.prepopulateKeys,
                             workload.keyCount());
        for (size_t i = 0; i < count; ++i) {
            const std::string key = workload.keyAt(i);
            const std::string value = workload.valueFor(key);
            for (uint32_t leaf : logic->replicaPool(key))
                leaves[leaf]->cache().set(key, value);
        }
    }

    DeploymentOptions options;
    KvWorkload workload;
    std::vector<std::unique_ptr<router::Leaf>> leaves;
    std::unique_ptr<router::MidTier> logic;
};

// --------------------------------------------------------------------
// Set Algebra
// --------------------------------------------------------------------

class SetAlgebraDeployment : public ServiceDeployment
{
  public:
    explicit SetAlgebraDeployment(const DeploymentOptions &options)
        : options(options), corpus(options.corpus)
    {
        serviceKind = ServiceKind::SetAlgebra;

        // Shard documents round-robin, keeping global doc ids.
        const uint32_t shards = options.leafShards;
        std::vector<std::vector<std::vector<uint32_t>>> shard_docs(
            shards);
        std::vector<std::vector<uint32_t>> shard_ids(shards);
        const auto &docs = corpus.documents();
        for (uint32_t d = 0; d < docs.size(); ++d) {
            shard_docs[d % shards].push_back(docs[d]);
            shard_ids[d % shards].push_back(d);
        }

        TierWiring::buildLeaves(
            options, shards,
            [&](uint32_t i, rpc::Server &server) {
                leaves.push_back(std::make_unique<setalgebra::Leaf>(
                    std::make_unique<InvertedIndex>(
                        shard_docs[i], shard_ids[i],
                        options.stopTerms)));
                leaves.back()->registerWith(server);
            },
            leafServers, leafChannels);

        logic = std::make_unique<setalgebra::MidTier>(
            leafChannels, options.midTierFanout);
        midTier = TierWiring::buildMidTier(options);
        logic->registerWith(*midTier);
        midTier->start();
    }

    ~SetAlgebraDeployment() override { shutdownTiers(); }

    uint32_t
    frontEndMethod() const override
    {
        return setalgebra::kSearch;
    }

    std::string
    sampleRequestBody(Rng &rng) override
    {
        setalgebra::SearchQuery query;
        query.terms = corpus.sampleQuery(rng);
        return encodeMessage(query);
    }

    bool
    validateResponse(std::string_view payload) const override
    {
        setalgebra::PostingReply reply;
        return decodeMessage(payload, reply);
    }

    bool
    responseDegraded(std::string_view payload) const override
    {
        setalgebra::PostingReply reply;
        return decodeMessage(payload, reply) && reply.degraded;
    }

    const TextCorpus &textCorpus() const { return corpus; }

  private:
    DeploymentOptions options;
    TextCorpus corpus;
    std::vector<std::unique_ptr<setalgebra::Leaf>> leaves;
    std::unique_ptr<setalgebra::MidTier> logic;
};

// --------------------------------------------------------------------
// Recommend
// --------------------------------------------------------------------

class RecommendDeployment : public ServiceDeployment
{
  public:
    explicit RecommendDeployment(const DeploymentOptions &options)
        : options(options),
          dataset(makeRatingsDataset(options.ratings))
    {
        serviceKind = ServiceKind::Recommend;
        MUSUITE_CHECK(!dataset.heldOutQueries.empty())
            << "ratings data set produced no held-out queries";

        std::vector<SparseRatings> shards = recommend::shardRatings(
            dataset.ratings, options.leafShards);

        TierWiring::buildLeaves(
            options, options.leafShards,
            [&](uint32_t i, rpc::Server &server) {
                leaves.push_back(std::make_unique<recommend::Leaf>(
                    std::move(shards[i])));
                leaves.back()->registerWith(server);
            },
            leafServers, leafChannels);

        logic = std::make_unique<recommend::MidTier>(
            leafChannels, options.midTierFanout);
        midTier = TierWiring::buildMidTier(options);
        logic->registerWith(*midTier);
        midTier->start();
    }

    ~RecommendDeployment() override { shutdownTiers(); }

    uint32_t frontEndMethod() const override { return recommend::kPredict; }

    std::string
    sampleRequestBody(Rng &rng) override
    {
        // Always query "empty" utility-matrix cells (never training
        // data), per the paper's load generator.
        const auto &pair = dataset.heldOutQueries[rng.nextBounded(
            dataset.heldOutQueries.size())];
        recommend::RatingQuery query;
        query.user = pair.first;
        query.item = pair.second;
        return encodeMessage(query);
    }

    bool
    validateResponse(std::string_view payload) const override
    {
        recommend::RatingReply reply;
        return decodeMessage(payload, reply);
    }

    bool
    responseDegraded(std::string_view payload) const override
    {
        recommend::RatingReply reply;
        return decodeMessage(payload, reply) && reply.degraded;
    }

  private:
    DeploymentOptions options;
    RatingsDataset dataset;
    std::vector<std::unique_ptr<recommend::Leaf>> leaves;
    std::unique_ptr<recommend::MidTier> logic;
};

} // namespace

std::unique_ptr<ServiceDeployment>
ServiceDeployment::create(ServiceKind kind,
                          const DeploymentOptions &options)
{
    switch (kind) {
      case ServiceKind::HdSearch:
        return std::make_unique<HdSearchDeployment>(options);
      case ServiceKind::Router:
        return std::make_unique<RouterDeployment>(options);
      case ServiceKind::SetAlgebra:
        return std::make_unique<SetAlgebraDeployment>(options);
      case ServiceKind::Recommend:
        return std::make_unique<RecommendDeployment>(options);
    }
    MUSUITE_PANIC() << "unknown service kind";
    return nullptr;
}

void
printEnvironmentBanner(std::ostream &out)
{
    utsname names{};
    uname(&names);

    std::string model = "unknown";
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
        if (line.rfind("model name", 0) == 0) {
            const size_t colon = line.find(':');
            if (colon != std::string::npos)
                model = line.substr(colon + 2);
            break;
        }
    }

    out << "--- environment (paper Table II analogue) ---\n"
        << "processor:    " << model << "\n"
        << "hw threads:   " << std::thread::hardware_concurrency()
        << "\n"
        << "kernel:       " << names.sysname << " " << names.release
        << "\n"
        << "network:      loopback TCP (all tiers on one host)\n"
        << "---------------------------------------------\n";
}

} // namespace musuite
