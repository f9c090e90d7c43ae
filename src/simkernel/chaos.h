/**
 * @file
 * Deterministic chaos campaigns over sim topologies.
 *
 * A ChaosCampaign replays a seeded fault schedule against a built
 * Topology in virtual time: each ChaosEvent names a gray-failure
 * shape (zombie, slow-ramp, flap, asymmetric partial partition, hard
 * link-down), the links it targets (a scenario stage, optionally one
 * child offset within every fan-out group), and the virtual instants
 * it injects and clears. arm() turns the schedule into SimClock
 * timers, so the whole campaign — fault onset, degradation ramp, and
 * recovery — replays byte-identically from (scenario, schedule,
 * seed).
 *
 * The injector shapes are pure counter rules (no RNG), so a campaign
 * adds no random draws of its own: any run-to-run divergence it
 * surfaces is a real nondeterminism bug in the stack under test.
 *
 * Single-threaded by design: campaigns mutate channels (install /
 * remove fault injectors, cut links) from SimClock timers, which is
 * only safe because the whole sim runs on the clock-pumping thread.
 * Do not use against real transports.
 */

#ifndef MUSUITE_SIMKERNEL_CHAOS_H
#define MUSUITE_SIMKERNEL_CHAOS_H

#include <cstdint>
#include <memory>
#include <vector>

#include "rpc/fault.h"
#include "simkernel/simclock.h"
#include "simkernel/topology.h"

namespace musuite {
namespace sim {

/** One scheduled fault: a shape, a target set, and a lifetime. */
struct ChaosEvent
{
    enum class Kind {
        /** Requests arrive and are served; no response ever returns.
         *  The peer looks alive to connection checks while every call
         *  burns its full deadline. */
        Zombie,
        /** Every request pays delayNs plus an ever-growing ramp of
         *  rampPerCallNs per call: successful but drifting away from
         *  the pool — the shape no per-call failure check sees. */
        SlowRamp,
        /** Alternating faulty/healthy windows of flapPeriod calls;
         *  faulty windows fail every request with UNAVAILABLE. */
        Flap,
        /** Asymmetric partial partition: the request side is clean,
         *  every dropEveryNth-th response is blackholed. */
        PartialPartition,
        /** Hard cut: the SimChannel refuses with UNAVAILABLE. The
         *  non-gray control shape. */
        LinkDown,
    };

    Kind kind = Kind::Zombie;

    // --- target: links of one scenario stage -------------------------
    /** Parent depth of the targeted links (LinkRef::parentTier), i.e.
     *  the stage whose inbound links get the fault. */
    size_t tier = 0;
    /** -1 = every link into the tier; otherwise only the child at
     *  this offset inside each parent's fan-out group (the
     *  one-bad-replica-per-group shape). */
    int32_t onlyChild = -1;

    // --- lifetime (virtual ns, absolute) -----------------------------
    int64_t injectAtNs = 0;
    /** 0 = never clears. Events targeting the same link must not
     *  overlap in time: clearing removes whatever injector is
     *  installed. */
    int64_t clearAtNs = 0;

    // --- shape knobs (0 = shape default) -----------------------------
    int64_t delayNs = 0;        //!< SlowRamp base delay.
    int64_t rampPerCallNs = 0;  //!< SlowRamp growth per call.
    uint64_t flapPeriod = 0;    //!< Flap window length, in calls.
    uint64_t dropEveryNth = 0;  //!< PartialPartition response cadence.
};

/**
 * Schedules and executes ChaosEvents on a topology's links. Must
 * outlive the run it is armed on (its timers capture `this`).
 */
class ChaosCampaign
{
  public:
    ChaosCampaign(SimClock &clock_in, Topology &topo_in)
        : clock(clock_in), topo(topo_in)
    {}

    ChaosCampaign(const ChaosCampaign &) = delete;
    ChaosCampaign &operator=(const ChaosCampaign &) = delete;

    /**
     * Schedule the whole campaign as SimClock timers. Every event
     * must target at least one existing link and inject at or after
     * the current virtual instant; violations abort. May be called
     * once per campaign.
     */
    void arm(std::vector<ChaosEvent> schedule);

    /** Faults injected / cleared so far (events, not calls). */
    size_t faultsInjected() const { return injectedCount; }
    size_t faultsCleared() const { return clearedCount; }

    /** Injectors installed by this campaign, in event order
     *  (inspection; empty entries for LinkDown events). */
    const std::vector<std::shared_ptr<rpc::FaultInjector>> &
    installedInjectors() const
    {
        return injectors;
    }

    /** Builds the injector spec an event's shape maps to (exposed for
     *  determinism tests). */
    static rpc::FaultSpec toFaultSpec(const ChaosEvent &event);

  private:
    std::vector<LinkRef> targetsOf(const ChaosEvent &event) const;
    void inject(const ChaosEvent &event);
    void clear(const ChaosEvent &event);

    SimClock &clock;
    Topology &topo;
    bool armed = false;
    size_t injectedCount = 0;
    size_t clearedCount = 0;
    std::vector<std::shared_ptr<rpc::FaultInjector>> injectors;
};

} // namespace sim
} // namespace musuite

#endif // MUSUITE_SIMKERNEL_CHAOS_H
