/**
 * @file
 * Simplified out-of-order core (Table 5: 3.2 GHz, 4-wide issue, 128-entry
 * instruction window). Non-memory instructions execute in one cycle;
 * memory operations access the shared LLC (or bypass it) and block
 * retirement until their data returns, bounding memory-level parallelism
 * by the window size exactly as Ramulator's trace CPU does.
 */

#ifndef BH_CORE_CORE_HH
#define BH_CORE_CORE_HH

#include <deque>
#include <functional>
#include <queue>
#include <vector>

#include "cache/llc.hh"
#include "core/trace.hh"

namespace bh
{

/** Core configuration. */
struct CoreConfig
{
    unsigned issueWidth = 4;
    unsigned retireWidth = 4;
    unsigned windowSize = 128;
    /** Per-core outstanding memory requests (L1 MSHR-equivalent). */
    unsigned maxOutstandingMem = 48;
};

/** One hardware thread executing a trace. */
class Core
{
  public:
    /**
     * @param thread this core's thread id
     * @param trace instruction stream (not owned)
     * @param llc shared cache, or nullptr for cacheless configs
     * @param mem memory system for bypass accesses
     */
    Core(const CoreConfig &config, ThreadId thread, TraceSource &trace,
         Llc *llc, MemSystem &mem);

    /**
     * Completion callbacks parked in the LLC or a controller hold the
     * core by pointer: it stays put and outlives every request it issued.
     */
    Core(const Core &) = delete;
    Core &operator=(const Core &) = delete;

    /** Advance one cycle. */
    void tick(Cycle now);

    /** Instructions retired so far. */
    std::uint64_t retired() const { return instrRetired; }

    /** Memory operations issued so far. */
    std::uint64_t memOps() const { return numMemOps; }

    /** Cycles the core could not issue due to resource rejection. */
    std::uint64_t stallCycles() const { return numStallCycles; }

    /**
     * Monotonic progress stamp: changes whenever the core retires or
     * issues anything. A tick that leaves the stamp unchanged was a
     * no-op, and the core stays a no-op until nextEventAt() (or an
     * external state change re-enables a rejected memory issue).
     */
    std::uint64_t
    progressStamp() const
    {
        return instrIssued + instrRetired + numMemOps;
    }

    /**
     * Cycle at which this blocked core can make progress on its own: the
     * completion time of the window-head memory op when known. Returns
     * kNoEventCycle when the wake-up depends on another component (a
     * memory issue slot freeing, a quota lifting) — those are bounded by
     * that component's own nextEventAt.
     */
    Cycle nextEventAt() const;

    /**
     * The event-skipping driver eliminated `n` cycles in which this core
     * would have re-attempted (and failed) the same memory issue.
     */
    void
    noteSkippedCycles(std::uint64_t n)
    {
        if (lastTickStalled)
            numStallCycles += n;
    }

    /**
     * True when the last tick was provably repeatable: re-running it
     * changes nothing (beyond replayable stall accounting) until
     * nextEventAt() or an external completion delivery. Queue-full
     * retries probe controller state every cycle and are never quiet
     * while controllers are active; MLP/MSHR-bound stalls are, because
     * they clear only by time or at a delivery boundary.
     */
    bool quietTick() const { return lastTickQuiet; }

    /**
     * Sleep protocol of event skipping. After each executed tick,
     * System::run calls settle(): a quiet core falls asleep until
     * its nextEventAt(), its own completion callback, or — when the
     * last issue attempt bounced off a full LLC MSHR file — any LLC
     * fill (`llc_fills` is Llc::fills(), 0 without an LLC). A core whose
     * tick could still touch the LLC's writeback retry queue never
     * sleeps (`llc_quiet` false). While sleeping() holds, each tick is
     * provably a no-op and System::run replays noteSkippedCycles(1)
     * instead.
     */
    void
    settle(std::uint64_t llc_fills, bool llc_quiet)
    {
        wakeAt = lastTickQuiet && llc_quiet ? nextEventAt() : 0;
        fillsAtSleep = llc_fills;
        wakeOnFill = lastTickStalled && stallMshrBound;
    }

    /** True while the core sleeps at `now` (see settle()). */
    bool
    sleeping(Cycle now, std::uint64_t llc_fills) const
    {
        return now < wakeAt && !(wakeOnFill && llc_fills != fillsAtSleep);
    }

    /** True if the trace ended and all work drained. */
    bool done() const { return traceEnded && pending.empty(); }

    ThreadId threadId() const { return thread; }

  private:
    static constexpr std::uint32_t kNoSlot = 0xffffffffu;

    /**
     * Completion state of one memory instruction, written by the
     * completion callback registered at the LLC / memory system. Slots
     * live in a pool indexed by uint32, so a callback captures only
     * `[this, idx]` and std::function stores it without allocating.
     * `counted` marks ops currently included in `mlp.unknown`.
     */
    struct MemSlot
    {
        Cycle done = -1;        ///< -1 while the completion time is unknown
        bool counted = false;
    };

    /** An in-flight memory instruction, ordered by window position. */
    struct MemOp
    {
        std::uint64_t pos = 0;          ///< instruction index in the window
        std::uint32_t slot = kNoSlot;   ///< index into `slots`
    };

    /**
     * O(1) memory-level-parallelism accounting (replaces scanning
     * `pending` on every issue attempt): ops with unknown completion
     * times are counted directly; known times sit in a min-heap and
     * drop out as simulated time passes them.
     */
    struct MlpState
    {
        unsigned unknown = 0;
        std::priority_queue<Cycle, std::vector<Cycle>,
                            std::greater<Cycle>> knownDone;

        /** Ops past their completion time leave the outstanding set. */
        unsigned
        outstandingAt(Cycle now)
        {
            while (!knownDone.empty() && knownDone.top() <= now)
                knownDone.pop();
            return unknown + static_cast<unsigned>(knownDone.size());
        }
    };

    /** Take a fresh slot from the pool. */
    std::uint32_t allocSlot();

    /** Completion callback body: the op in `idx` finishes at `done`. */
    void onMemDone(std::uint32_t idx, Cycle done);

    bool issueMemOp(Cycle now);

    CoreConfig cfg;
    ThreadId thread = 0;
    TraceSource &trace;
    Llc *llc;
    MemSystem &mem;

    std::uint64_t instrIssued = 0;
    std::uint64_t instrRetired = 0;
    std::uint64_t numMemOps = 0;
    std::uint64_t numStallCycles = 0;

    std::uint32_t pendingBubbles = 0;
    bool havePendingMem = false;
    TraceEntry pendingMem;
    bool traceEnded = false;
    bool lastTickStalled = false;
    bool lastTickQuiet = false;
    bool stallDeliveryBound = false;    ///< last rejection clears only at
                                        ///< a known time or a delivery
    bool stallMshrBound = false;        ///< last rejection was LLC kReject
    std::uint32_t retrySlot = kNoSlot;  ///< completion slot, reused across
                                        ///< rejected attempts

    // Sleep state (see settle()); wakeAt 0 means awake.
    Cycle wakeAt = 0;
    std::uint64_t fillsAtSleep = 0;
    bool wakeOnFill = false;

    std::deque<MemOp> pending;
    std::vector<MemSlot> slots;
    std::vector<std::uint32_t> freeSlots;
    MlpState mlp;
};

} // namespace bh

#endif // BH_CORE_CORE_HH
