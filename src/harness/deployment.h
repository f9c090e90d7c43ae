/**
 * @file
 * Full-service deployment: leaves + mid-tier wired over loopback TCP
 * (or in-process channels), matching the paper's experimental set-up
 * (§V): a load generator, one mid-tier microservice, and a sharded
 * leaf microservice — four-way sharded for HDSearch / Set Algebra /
 * Recommend, 16-way with three replicas for Router.
 *
 * Deployments are the loopback-TCP binding of the Clock/transport
 * seam: servers and clients here run threads and epoll, so they bind
 * the real clock (construct deployments with no ambient-clock
 * override). Deterministic whole-topology scenarios belong on the
 * simulated binding instead (simkernel/sim_transport.h).
 */

#ifndef MUSUITE_HARNESS_DEPLOYMENT_H
#define MUSUITE_HARNESS_DEPLOYMENT_H

#include <memory>
#include <string>
#include <vector>

#include "base/rng.h"
#include "dataset/datasets.h"
#include "index/lsh.h"
#include "rpc/client.h"
#include "rpc/server.h"
#include "services/common/fanout.h"
#include "services/router/midtier.h"

namespace musuite {

/** The four µSuite services. */
enum class ServiceKind {
    HdSearch,
    Router,
    SetAlgebra,
    Recommend,
};

const char *serviceName(ServiceKind kind);
std::vector<ServiceKind> allServices();

/** Deployment-wide knobs with paper-like defaults scaled to one box. */
struct DeploymentOptions
{
    uint32_t leafShards = 4;   //!< Router overrides to 16 by default.
    bool routerDefaultShards = true; //!< Apply the 16-way override.

    // Field-by-field (not positional aggregate init) so growing
    // ServerOptions doesn't churn or silently reorder these.
    rpc::ServerOptions midTierServer = [] {
        rpc::ServerOptions options;
        options.workerThreads = 4;
        options.name = "mid";
        return options;
    }();
    /** Leaves run handlers inline on their poller, because a worker
     *  hand-off costs more than a leaf's short lookup or scan; so a
     *  leaf handler must not block (DESIGN.md, "Leaf threading"). */
    rpc::ServerOptions leafServer = [] {
        rpc::ServerOptions options;
        options.dispatchToWorkers = false;
        options.name = "leaf";
        return options;
    }();
    rpc::ClientOptions midToLeafClient{
        /*connections=*/1, /*completionThreads=*/1,
        /*blockingPoll=*/true, /*name=*/"mid2leaf"};

    /** Data-set scales (defaults sized for a small machine; the fig*
     *  benches expose flags to restore paper scale). */
    GmmOptions gmm{/*numVectors=*/4000, /*dimension=*/128,
                   /*clusters=*/32, /*clusterStddev=*/0.15,
                   /*spaceScale=*/1.0, /*seed=*/11};
    LshParams lsh{/*numTables=*/8, /*hashesPerTable=*/10,
                  /*bucketWidth=*/4.0f, /*multiProbes=*/8, /*seed=*/42};
    uint32_t searchK = 4;

    CorpusOptions corpus{/*numDocuments=*/8000, /*vocabulary=*/8000,
                         /*zipfExponent=*/1.05, /*meanDocLength=*/80,
                         /*seed=*/13};
    size_t stopTerms = 16;

    RatingsOptions ratings{/*users=*/240, /*items=*/200,
                           /*meanRatingsPerUser=*/15, /*latentRank=*/6,
                           /*noiseStddev=*/0.2, /*seed=*/17};

    KvWorkloadOptions kv{/*numKeys=*/20000, /*valueBytes=*/128,
                         /*zipfExponent=*/0.99, /*getFraction=*/0.5,
                         /*seed=*/19};
    router::MidTierOptions routerMidTier{/*replicas=*/3, /*seed=*/23};
    size_t prepopulateKeys = 5000;

    /**
     * Mid-tier fan-out resilience policy (per-leg deadline and
     * retries, the quorum fraction and optional outlier ejection), for
     * every service. Defaults keep the historical behaviour: wait for
     * every leg, no per-leg deadline. An ejection policy judges one
     * peer pool, so give each deployment its own.
     */
    FanoutPolicy midTierFanout;

    uint64_t seed = 1;
};

/**
 * One running service: every tier in this process, leaves reachable
 * from the mid-tier over loopback TCP.
 */
class ServiceDeployment
{
  public:
    virtual ~ServiceDeployment() = default;

    /** Bring up the requested service. Blocks until ready. */
    static std::unique_ptr<ServiceDeployment> create(
        ServiceKind kind, const DeploymentOptions &options);

    ServiceKind kind() const { return serviceKind; }

    /** Mid-tier listening port; front-end clients dial this. */
    uint16_t midTierPort() const { return midTier->port(); }

    /** Method id a front-end uses against the mid-tier. */
    virtual uint32_t frontEndMethod() const = 0;

    /** Draw one realistic request body for this service. */
    virtual std::string sampleRequestBody(Rng &rng) = 0;

    /**
     * Validate a response payload for basic shape (used by load
     * generators to classify success).
     */
    virtual bool validateResponse(std::string_view payload) const = 0;

    /**
     * True if a (valid) response payload carries the service's
     * degraded/partial-result flag.
     */
    virtual bool responseDegraded(std::string_view payload) const = 0;

    rpc::Server &midTierServer() { return *midTier; }
    size_t leafCount() const { return leafServers.size(); }
    rpc::Server &leafServer(size_t i) { return *leafServers[i]; }

    /**
     * Mid-tier's channel to leaf `i` — exposed so experiments can
     * install a rpc::FaultInjector or inspect client stats.
     */
    const std::shared_ptr<rpc::Channel> &leafChannel(size_t i)
    {
        return leafChannels.at(i);
    }

    /** Kill one leaf server (fault-injection experiments). */
    void killLeaf(size_t i);

  protected:
    /**
     * Stop the mid-tier server, drop the leaf channels and stop the
     * leaf servers. Every derived destructor calls this first, so no
     * server thread is still running a handler when the service
     * logic it calls into is destroyed.
     */
    void shutdownTiers();

    ServiceKind serviceKind;
    std::unique_ptr<rpc::Server> midTier;
    std::vector<std::unique_ptr<rpc::Server>> leafServers;
    std::vector<std::shared_ptr<rpc::Channel>> leafChannels;
};

/** Print the Table II-style environment banner. */
void printEnvironmentBanner(std::ostream &out);

} // namespace musuite

#endif // MUSUITE_HARNESS_DEPLOYMENT_H
