/**
 * @file
 * Multi-channel memory system: one channel lane per DRAM channel, each
 * with its own controller, DRAM device, scheduler queues, energy model,
 * RowHammer observer, and mitigation-mechanism instance (the paper
 * evaluates one BlockHammer instance per channel, Table 5). The address
 * mapper steers requests to lanes by their channel bits; admission
 * (AttackThrottler quotas, queue-full gating) is checked against the
 * target lane.
 *
 * Lanes are self-contained: a lane's tick touches only lane-local state,
 * so the driver may tick different lanes on different threads. Read
 * completions are buffered per lane (see DeferredCompletion) and the
 * driver delivers them to cores/the LLC at cycle `done`, in
 * (done, channel, lane-sequence) order — byte-identical results for any
 * worker count. Single-channel systems keep the legacy inline-callback
 * path bit-for-bit.
 */

#ifndef BH_MEM_MEM_SYSTEM_HH
#define BH_MEM_MEM_SYSTEM_HH

#include <memory>
#include <queue>
#include <vector>

#include "analysis/rowhammer_observer.hh"
#include "dram/address_map.hh"
#include "mem/controller.hh"

namespace bh
{

/** Aggregate configuration for a memory system instance. */
struct MemSystemConfig
{
    DramOrg org = DramOrg::paperConfig();
    DramTimings timings = DramTimings::ddr4();
    MapScheme scheme = MapScheme::kMop;
    ControllerConfig ctrl;
    HammerConfig hammer;
    /** Run the lane observer's failure model (bit-flips). */
    bool enableHammerObserver = true;
    bool enableEnergy = true;
    /**
     * Run the lane observer's sliding-tREFW activation bound (the
     * security verdict; see analysis/rowhammer_observer.hh), with
     * threshold `hammer.nRH` and window `timings.tREFW`. Off by default.
     * Either check is observation-only: enabling it cannot change
     * simulation results.
     */
    bool enableSecurityOracle = false;
};

/** Why a submit() was rejected. */
enum class SubmitResult
{
    kAccepted,
    kQueueFull,
    kQuotaExceeded,
};

/** The full memory subsystem behind the LLC. */
class MemSystem
{
  public:
    /**
     * Multi-channel constructor: one mitigation instance per channel
     * (`mitigations.size()` must equal `config.org.channels`).
     */
    MemSystem(const MemSystemConfig &config,
              std::vector<std::unique_ptr<Mitigation>> mitigations);

    /** Single-channel convenience constructor (org.channels must be 1). */
    MemSystem(const MemSystemConfig &config,
              std::unique_ptr<Mitigation> mitigation);

    /** Decode, check quota, and enqueue a request on its channel lane. */
    SubmitResult submit(Request req);

    /** Would a request of `type` to `addr` bounce off a full queue? */
    bool queueFull(ReqType type, Addr addr) const;

    /** Single-channel queue-full check (fatal on multi-channel systems). */
    bool queueFull(ReqType type) const;

    /** Advance every lane one memory-controller cycle (serially). */
    void tick(Cycle now);

    /** Total DRAM energy in Joules across all lanes up to `now`. */
    double totalEnergy(Cycle now);

    /** Number of channel lanes. */
    unsigned channels() const
    {
        return static_cast<unsigned>(lanes.size());
    }

    /** Per-channel component access. */
    MemController &controller(unsigned ch) { return *lanes[ch].ctrl; }
    const MemController &controller(unsigned ch) const
    {
        return *lanes[ch].ctrl;
    }
    DramDevice &device(unsigned ch) { return *lanes[ch].dram; }
    Mitigation &mitigation(unsigned ch) { return *lanes[ch].mitig; }
    /** The lane's observer if its failure model runs, else nullptr. */
    RowHammerObserver *hammerObserver(unsigned ch)
    {
        return failureModelOf(lanes[ch]);
    }
    /** The lane's observer if its activation bound runs, else nullptr. */
    RowHammerObserver *securityOracle(unsigned ch)
    {
        return windowOf(lanes[ch]);
    }
    DramEnergyModel *energyModel(unsigned ch)
    {
        return lanes[ch].energy.get();
    }

    /**
     * Single-channel convenience accessors: existing single-channel
     * tests/tools read naturally; calling them on a multi-channel system
     * is a bug and fails loudly.
     */
    MemController &controller() { return *soleLane().ctrl; }
    const MemController &controller() const { return *soleLane().ctrl; }
    DramDevice &device() { return *soleLane().dram; }
    Mitigation &mitigation() { return *soleLane().mitig; }
    RowHammerObserver *hammerObserver() { return failureModelOf(soleLane()); }
    RowHammerObserver *securityOracle() { return windowOf(soleLane()); }
    DramEnergyModel *energyModel() { return soleLane().energy.get(); }

    const AddressMapper &mapper() const { return *map; }

    /** Number of rejected submissions due to quota (throttling pressure). */
    std::uint64_t quotaRejects() const { return numQuotaRejects; }

    // ---- driver hooks (System::run) ------------------------------------

    /** Sum of every lane's activity stamp (quiescence check). */
    std::uint64_t activityStamp() const;

    /** True when every lane's last tick was idle (see MemController). */
    bool allIdleSinceLastTick() const;

    /** Min over lanes of the controller's next-event bound. */
    Cycle nextEventAt(Cycle now);

    /** Replay `n` skipped idle ticks on every lane. */
    void noteSkippedTicks(std::uint64_t n);

    /**
     * Move the per-lane completion buffers into the delivery heap, in
     * channel order. Call after lane ticks (serial or at a chunk
     * barrier); multi-channel only.
     */
    void flushCompletions();

    /** Invoke every buffered completion with done <= now, in order. */
    void deliverCompletionsDue(Cycle now);

    /** Earliest pending delivery, or kNoEventCycle when none. */
    Cycle nextCompletionAt() const;

    /**
     * Lower bound on (completion cycle - issue cycle) of any read or
     * write the controllers can complete: a chunk of lane ticks whose
     * length stays below this bound can never delay a delivery past its
     * due cycle.
     */
    Cycle minCompletionLatency() const;

  private:
    /** Everything one memory channel owns. */
    struct Lane
    {
        std::unique_ptr<DramDevice> dram;
        std::unique_ptr<DramEnergyModel> energy;
        std::unique_ptr<RowHammerObserver> observer;
        std::unique_ptr<Mitigation> mitig;
        std::unique_ptr<MemController> ctrl;
        std::vector<DeferredCompletion> completions;
    };

    Lane &
    soleLane()
    {
        if (lanes.size() != 1)
            panic("single-channel MemSystem accessor used on a %zu-channel "
                  "system; pass a channel index",
                  lanes.size());
        return lanes[0];
    }

    const Lane &
    soleLane() const
    {
        return const_cast<MemSystem *>(this)->soleLane();
    }

    static RowHammerObserver *
    failureModelOf(const Lane &lane)
    {
        auto *obs = lane.observer.get();
        return obs && obs->modelsFailures() ? obs : nullptr;
    }

    static RowHammerObserver *
    windowOf(const Lane &lane)
    {
        auto *obs = lane.observer.get();
        return obs && obs->checksWindow() ? obs : nullptr;
    }

    /** Delivery-heap entry: ordered by (done, channel, lane seq). */
    struct PendingDelivery
    {
        Cycle done = 0;
        unsigned channel = 0;
        std::uint64_t seq = 0;
        std::shared_ptr<std::function<void(Cycle)>> fn;

        bool
        operator>(const PendingDelivery &o) const
        {
            if (done != o.done)
                return done > o.done;
            if (channel != o.channel)
                return channel > o.channel;
            return seq > o.seq;
        }
    };

    MemSystemConfig cfg;
    std::unique_ptr<AddressMapper> map;
    std::vector<Lane> lanes;
    std::priority_queue<PendingDelivery, std::vector<PendingDelivery>,
                        std::greater<PendingDelivery>> pendingDeliveries;
    std::uint64_t numQuotaRejects = 0;
};

} // namespace bh

#endif // BH_MEM_MEM_SYSTEM_HH
