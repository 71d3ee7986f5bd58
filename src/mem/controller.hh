/**
 * @file
 * Cycle-level DRAM memory controller for one channel.
 *
 * Models the paper's Table 5 controller: 64-entry read and write queues,
 * FR-FCFS scheduling, open-page row policy, write draining between
 * watermarks, periodic all-bank refresh, a victim-refresh side channel for
 * reactive mitigation mechanisms, and the BlockHammer safety-query hook in
 * front of every demand activation.
 *
 * For event-skipping simulation the controller answers nextEventAt()
 * (earliest future cycle at which it could issue a command or change
 * externally visible state, given no new requests) and replays the
 * per-tick side effects of skipped idle ticks through noteSkippedTicks(),
 * so a skipping run is bit-compatible with a cycle-by-cycle run.
 */

#ifndef BH_MEM_CONTROLLER_HH
#define BH_MEM_CONTROLLER_HH

#include <deque>
#include <memory>
#include <vector>

#include "common/stats.hh"
#include "common/trace_sink.hh"
#include "dram/device.hh"
#include "dram/energy.hh"
#include "mem/mitigation.hh"
#include "mem/request.hh"
#include "mem/scheduler.hh"

namespace bh
{

class RowHammerObserver;

/** Controller tuning knobs. */
struct ControllerConfig
{
    unsigned readQueueSize = 64;
    unsigned writeQueueSize = 64;
    unsigned writeHighWatermark = 48;   ///< start draining writes
    unsigned writeLowWatermark = 16;    ///< stop draining writes
    /**
     * FR-FCFS-Cap: consecutive row hits a bank may serve while a
     * conflicting request waits, bounding streaming-thread bank capture.
     */
    unsigned rowHitCap = 8;
};

/**
 * A read completion the controller produced but has not yet delivered to
 * the requester. Multi-channel systems tick their channel lanes without
 * touching shared core/LLC state; completions are buffered here (with the
 * lane-local sequence number that makes cross-lane delivery order
 * deterministic) and invoked by the driver at cycle `done`, the cycle the
 * data semantically returns.
 */
struct DeferredCompletion
{
    Cycle done = 0;
    std::uint64_t seq = 0;          ///< lane-local, monotonic
    std::function<void(Cycle)> fn;
};

/** Per-thread row-buffer interaction counters. */
struct ThreadMemStats
{
    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;
    std::uint64_t rowConflicts = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t activates = 0;
};

/** One memory channel's controller. */
class MemController
{
  public:
    MemController(DramDevice &device, const ControllerConfig &config,
                  Mitigation &mitigation, RowHammerObserver *observer,
                  DramEnergyModel *energy);

    /** Try to accept a request; false if the target queue is full. */
    bool enqueue(Request req);

    /** Advance one cycle: refresh, victim refreshes, demand scheduling. */
    void tick(Cycle now);

    /**
     * Schedule a victim-row refresh (reactive mitigations). The refresh is
     * an ACT+PRE pair that occupies the bank; it is exempt from the
     * mitigation's own safety query to avoid self-feedback.
     */
    void scheduleVictimRefresh(unsigned flat_bank, RowId row);

    /** Pending victim refreshes not yet completed. */
    std::size_t pendingVictimRefreshes() const;

    /** Queue occupancy. */
    std::size_t readQueueDepth() const { return readQ.size(); }
    std::size_t writeQueueDepth() const { return writeQ.size(); }

    /** Queue-full admission checks (cheap pre-gate for submit retries). */
    bool readQueueFull() const { return readQ.size() >= cfg.readQueueSize; }
    bool writeQueueFull() const
    {
        return writeQ.size() >= cfg.writeQueueSize;
    }

    /** Account a submit rejected up front for a full queue. */
    void noteQueueFullReject() { ++numQueueFull; }

    /** In-flight (accepted, not yet serviced) reads for <thread, bank>. */
    int inflight(ThreadId thread, unsigned flat_bank) const;

    /** In-flight reads of `thread` summed across this channel's banks. */
    int inflightThread(ThreadId thread) const;

    /** Per-thread row-buffer statistics. */
    const ThreadMemStats &threadStats(ThreadId thread) const;

    /** Aggregate counters. */
    std::uint64_t demandActivations() const { return numActDemand; }
    std::uint64_t blockedActQueries() const { return numActBlocked; }
    std::uint64_t victimRefreshesDone() const { return numVictimDone; }
    std::uint64_t victimRefreshesScheduled() const
    {
        return numVictimScheduled;
    }
    std::uint64_t refreshes() const { return numRefreshes; }
    std::uint64_t rowHits() const { return numRowHits; }
    std::uint64_t rowMisses() const { return numRowMisses; }
    std::uint64_t rowConflicts() const { return numRowConflicts; }

    /**
     * Monotonic count of externally visible controller activity: issued
     * DRAM commands, completed victim-refresh ops, and accepted requests.
     * The event-skipping driver compares stamps across a cycle to decide
     * whether the system is quiescent.
     */
    std::uint64_t activityStamp() const { return numActions; }

    /**
     * True when the most recent tick() performed no externally visible
     * action AND no request arrived since it ran — the precondition for
     * treating that tick as representative of skipped idle ticks.
     */
    bool
    idleSinceLastTick() const
    {
        return numActions == stampAfterLastTick &&
            stampAfterLastTick == stampBeforeLastTick;
    }

    /**
     * Earliest cycle > `now` at which this controller could act (issue a
     * command, start a refresh, or see a mitigation verdict change),
     * assuming no new requests arrive. Conservative: never later than the
     * true next action, may be earlier. Only valid in an idle state (see
     * idleSinceLastTick()).
     */
    Cycle nextEventAt(Cycle now);

    /**
     * Replay the externally invisible side effects of `n` skipped idle
     * ticks: blocked-activation counters (exactly `n` times the last idle
     * tick's safety-query evaluations), the write-drain fairness toggle,
     * and the mitigation's own per-tick accounting.
     */
    void noteSkippedTicks(std::uint64_t n);

    /**
     * Enable/disable the internal idle-tick fast path (replaying a
     * provably identical idle tick instead of re-walking the queues).
     * On by default; the cycle-by-cycle reference mode turns it off so
     * `--skip off` exercises the original code path end to end.
     */
    void setFastIdleTicks(bool enabled) { fastIdleTicks = enabled; }

    /**
     * Divert read-completion callbacks into `sink` instead of invoking
     * them inline during tick(). Multi-channel lanes set this so their
     * ticks never touch shared core/LLC state (the driver delivers the
     * buffered completions at cycle `done`); nullptr (the single-channel
     * default) restores the inline legacy behavior.
     */
    void setCompletionSink(std::vector<DeferredCompletion> *sink)
    {
        completionSink = sink;
    }

    /** Publish counters into `stats` (call once after a run). */
    void syncStats();

    /**
     * Trace identity (pid = simulated system, tid = channel). Assigned
     * by System when a trace is open; observation-only.
     */
    void setTraceMeta(const TraceMeta &meta) { tmeta = meta; }
    const TraceMeta &traceMeta() const { return tmeta; }

    const DramDevice &device() const { return dram; }
    Mitigation &mitigation() { return mitig; }

    StatSet stats;

  private:
    /** Victim refresh progress per bank. */
    struct VictimOp
    {
        RowId row = 0;
        bool activated = false;
    };

    bool tryRefresh(Cycle now);
    bool tryVictimRefresh(Cycle now);
    bool tryDemand(Cycle now);
    void issueColumn(SchedQueue &queue, SchedQueue::Handle h, Cycle now);
    bool issuePrep(SchedQueue &queue, SchedQueue::Handle h, Cycle now);
    void noteInflight(ThreadId thread, unsigned bank, int delta);
    ThreadMemStats &threadStatsMutable(ThreadId thread);

    DramDevice &dram;
    ControllerConfig cfg;
    Mitigation &mitig;
    RowHammerObserver *observer;
    DramEnergyModel *energy;
    FrFcfsScheduler scheduler;

    SchedQueue readQ;
    SchedQueue writeQ;
    std::vector<std::deque<VictimOp>> victimQ;  ///< per bank

    bool drainingWrites = false;
    bool drainToggle = false;
    Cycle nextRefreshAt = 0;
    bool refreshPending = false;

    std::vector<DeferredCompletion> *completionSink = nullptr;
    std::uint64_t completionSeq = 0;

    TraceMeta tmeta;

    // Cached bounded histograms (avoid a map lookup per request).
    Histogram *latencyHist;
    Histogram *readDepthHist;
    Histogram *writeDepthHist;

    std::vector<int> inflightCount;     ///< [thread * banks + bank]
    std::vector<int> inflightByThread;  ///< per-thread aggregate
    std::vector<unsigned> hitStreak;    ///< consecutive row hits per bank
    std::vector<ThreadMemStats> perThread;
    unsigned banks = 0;

    // Event-skipping bookkeeping (see activityStamp()).
    std::uint64_t numActions = 0;
    std::uint64_t stampBeforeLastTick = 0;
    std::uint64_t stampAfterLastTick = 0;
    Cycle lastTickAt = -1;
    bool lastTickReachedDemand = false;
    std::uint64_t lastTickBlockedEvals = 0;
    bool fastIdleTicks = true;
    bool idleTickValid = false;     ///< idleUntil holds a live bound
    Cycle idleUntil = 0;            ///< no controller event before this

    std::uint64_t numReads = 0;
    std::uint64_t numWrites = 0;
    std::uint64_t numQueueFull = 0;
    std::uint64_t numRowHits = 0;
    std::uint64_t numRowMisses = 0;
    std::uint64_t numRowConflicts = 0;
    std::uint64_t numActDemand = 0;
    std::uint64_t numActBlocked = 0;
    std::uint64_t numPreDemand = 0;
    std::uint64_t numVictimScheduled = 0;
    std::uint64_t numVictimDone = 0;
    std::uint64_t numRefreshes = 0;
};

} // namespace bh

#endif // BH_MEM_CONTROLLER_HH
