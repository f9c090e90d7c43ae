/**
 * @file
 * Deterministic fault injection for the RPC fabric.
 *
 * µSuite's mid-tiers live or die on how they handle a slow or dead
 * leaf, so failure scenarios must be reproducible on demand. A
 * FaultInjector attaches to any rpc::Channel and perturbs its calls at
 * the request and response boundaries: drop (blackhole), error
 * (complete with an injected status), or delay. Decisions come either
 * from deterministic counter rules (fail the first N calls, drop every
 * Nth) for exact test scripts, or from a seeded RNG for statistical
 * fault storms — both replay identically run to run. Delay faults are
 * executed on the owning channel's Clock (base/clock.h), so a fault
 * schedule replayed under the simulated clock perturbs virtual time
 * exactly as it perturbed wall time.
 */

#ifndef MUSUITE_RPC_FAULT_H
#define MUSUITE_RPC_FAULT_H

#include <atomic>
#include <cstdint>

#include "base/rng.h"
#include "base/status.h"
#include "base/threading.h"

namespace musuite {
namespace rpc {

/** What to do to one request or response. */
struct FaultDecision
{
    enum class Kind {
        None,  //!< Pass through untouched.
        Drop,  //!< Blackhole: the message never arrives.
        Error, //!< Complete immediately with `status`.
        Delay, //!< Deliver after `delayNs`.
    };

    Kind kind = Kind::None;
    int64_t delayNs = 0;
    Status status;
};

/**
 * Fault plan. Counter rules (exact, 1-based over the injector's
 * lifetime; requests and responses keep independent ordinals) are
 * evaluated before probabilistic rules, so a test can script "fail
 * calls 1-2, then behave" while a storm uses the seeded
 * probabilities. Responses have counter rules only.
 *
 * The gray-failure shapes compose from the response-side and shaping
 * rules: a *zombie* (accepts, never answers) is dropResponseEveryNth
 * = 1; *slow-ramp* degradation is delayEveryNth = 1 plus a nonzero
 * delayRampPerCallNs; an *asymmetric partial partition* leaves the
 * request side clean and drops/delays only responses; *flapping*
 * gates every rule through alternating faulty/healthy windows of
 * flapPeriod calls.
 */
struct FaultSpec
{
    // --- deterministic counter rules (0 = disabled) ------------------
    uint64_t errorFirstN = 0;   //!< Fail the first N requests.
    uint64_t delayFirstN = 0;   //!< Delay the first N requests.
    uint64_t dropEveryNth = 0;  //!< Blackhole every Nth request.
    uint64_t delayEveryNth = 0; //!< Delay every Nth request.
    /** Blackhole every Nth response (1 = zombie: the server does the
     *  work, the answer never comes back). Counted on the response
     *  ordinal, independent of the request rules. */
    uint64_t dropResponseEveryNth = 0;
    uint64_t delayResponseEveryNth = 0; //!< Delay every Nth response.

    // --- fault shaping -----------------------------------------------
    /**
     * Slow-ramp: each delayed *request* pays an extra
     * (ordinal - 1) * delayRampPerCallNs on top of delayNs, so the
     * peer degrades gradually — successful but ever slower, the gray
     * shape no per-call failure check ever sees.
     */
    int64_t delayRampPerCallNs = 0;
    /**
     * Flapping: > 0 alternates windows of this many calls between
     * faulty (all rules active) and healthy (all rules skipped),
     * starting faulty. Requests and responses flap on their own
     * ordinals.
     */
    uint64_t flapPeriod = 0;

    // --- seeded probabilistic request rules --------------------------
    double errorProb = 0.0;        //!< Fail a request outright.
    double dropRequestProb = 0.0;  //!< Blackhole a request.
    double delayRequestProb = 0.0; //!< Delay a request...
    int64_t delayNs = 0;           //!< ...by this much.
    /** Response-side delay duration; 0 falls back to delayNs, so the
     *  two directions can be shaped independently (asymmetric
     *  partition) without breaking existing specs. */
    int64_t responseDelayNs = 0;

    StatusCode errorCode = StatusCode::Unavailable;
    uint64_t seed = 1;
};

class FaultInjector
{
  public:
    explicit FaultInjector(FaultSpec spec_in)
        : spec(spec_in), rng(spec_in.seed)
    {}

    /** Consulted once per outgoing attempt. */
    FaultDecision onRequest();

    /** Consulted once per arriving response. */
    FaultDecision onResponse();

    uint64_t requestsSeen() const { return requestCount.load(); }
    uint64_t responsesSeen() const { return responseCount.load(); }
    uint64_t faultsInjected() const { return faultCount.load(); }

  private:
    FaultDecision decideRequest(uint64_t ordinal);
    FaultDecision decideResponse(uint64_t ordinal);

    FaultSpec spec;
    Mutex mutex{LockRank::faultInjector, "rpc.fault"};
    Rng rng GUARDED_BY(mutex);
    std::atomic<uint64_t> requestCount{0};
    std::atomic<uint64_t> responseCount{0};
    std::atomic<uint64_t> faultCount{0};
};

} // namespace rpc
} // namespace musuite

#endif // MUSUITE_RPC_FAULT_H
