/**
 * @file
 * Fault-tolerant key-value routing (the Router scenario, paper
 * §III-B): a memcached-like fleet behind a replication-based protocol
 * router. Demonstrates
 *
 *   - SpookyHash route computation and replication pools,
 *   - the drop-in-proxy client model (clients only speak get/set),
 *   - load spreading of hot keys across replicas, and
 *   - fault tolerance: a leaf is killed mid-run and gets keep being
 *     served by the surviving replicas.
 *
 * Build & run:  ./build/examples/kv_routing
 */

#include <iostream>

#include "harness/deployment.h"
#include "rpc/client.h"
#include "services/router/proto.h"

using namespace musuite;

namespace {

router::KvReply
issue(rpc::RpcClient &client, router::Op op, const std::string &key,
      const std::string &value = "")
{
    router::KvRequest request;
    request.op = op;
    request.key = key;
    request.value = value;
    auto result =
        client.callSync(router::kRoute, encodeMessage(request));
    router::KvReply reply;
    if (result.isOk())
        decodeMessage(result.payload(), reply);
    return reply;
}

} // namespace

int
main()
{
    // A 16-way sharded memcached fleet with 3-way replication — the
    // paper's Router configuration.
    DeploymentOptions options;
    options.prepopulateKeys = 0; // We write our own data below.
    auto service =
        ServiceDeployment::create(ServiceKind::Router, options);
    std::cout << "Router is up: " << service->leafCount()
              << " memcached-like leaves, 3 replicas per key\n";

    rpc::RpcClient client(service->midTierPort());

    // Store a working set. Each set fans out to its 3-leaf pool.
    constexpr int keys = 200;
    for (int i = 0; i < keys; ++i) {
        const std::string key = "session:" + std::to_string(i);
        if (!issue(client, router::Op::Set, key, "user-data-" +
                                                     std::to_string(i))
                 .found) {
            std::cerr << "set failed for " << key << "\n";
            return 1;
        }
    }
    std::cout << "stored " << keys << " keys (3 replicas each)\n";

    // Read them back.
    int hits = 0;
    for (int i = 0; i < keys; ++i) {
        const auto reply = issue(client, router::Op::Get,
                                 "session:" + std::to_string(i));
        hits += reply.found &&
                reply.value == "user-data-" + std::to_string(i);
    }
    std::cout << "read back " << hits << "/" << keys
              << " keys correctly\n";

    // Fault injection: kill two leaves. Replicated pools mean every
    // key still has at least one live copy.
    service->killLeaf(3);
    service->killLeaf(11);
    std::cout << "killed leaves 3 and 11\n";

    int surviving = 0;
    for (int i = 0; i < keys; ++i) {
        const auto reply = issue(client, router::Op::Get,
                                 "session:" + std::to_string(i));
        surviving += reply.found &&
                     reply.value == "user-data-" + std::to_string(i);
    }
    std::cout << "after failure: " << surviving << "/" << keys
              << " keys still served (gets fail over to live "
                 "replicas)\n";

    // Writes keep working too: surviving replicas absorb them.
    const bool write_ok =
        issue(client, router::Op::Set, "post-failure-key", "alive")
            .found;
    std::cout << "post-failure write: "
              << (write_ok ? "accepted" : "rejected") << "\n";

    const bool ok = hits == keys && surviving == keys && write_ok;
    std::cout << (ok ? "fault-tolerance demo passed"
                     : "fault-tolerance demo FAILED")
              << "\n";
    return ok ? 0 : 1;
}
