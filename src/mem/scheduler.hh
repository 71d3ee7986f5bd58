/**
 * @file
 * FR-FCFS request selection (Rixner et al., ISCA 2000), factored out of the
 * controller for testability: row-buffer-hit requests first, then oldest.
 *
 * The scheduler is incremental: requests live in a SchedQueue that buckets
 * them per bank (FIFO within a bank, global age via sequence numbers), and
 * per-bank row-hit statistics are cached and revalidated lazily against the
 * bank's open-row state. Column picks cost O(active banks) instead of
 * O(queue); row-prep picks walk the global age list but return at the first
 * eligible request, preserving the exact pick — and the exact order of
 * mitigation safety queries — of the original full-walk implementation.
 * When no bank can PRE or ACT at all (the common case), an O(active
 * banks) check proves the walk would pick nothing, and only its safety
 * queries are replayed from the per-bank lists merged by age.
 *
 * All per-bank state is sized from the device, so arbitrarily large
 * organizations (multi-rank DDR4 with > 64 flat banks) work; the old
 * stack-allocated kMaxBanks=64 scratch arrays (and their panic) are gone.
 */

#ifndef BH_MEM_SCHEDULER_HH
#define BH_MEM_SCHEDULER_HH

#include <cstdint>
#include <vector>

#include "common/function_ref.hh"
#include "dram/device.hh"
#include "mem/request.hh"

namespace bh
{

/**
 * Age-ordered request queue with per-bank buckets.
 *
 * Requests are stored in a slab of nodes linked into (a) one global list in
 * arrival order and (b) one per-bank list in arrival order. Handles are
 * stable slab indices; removal is O(1). A monotonically increasing sequence
 * number per request gives the global age relation across banks.
 */
class SchedQueue
{
  public:
    using Handle = std::uint32_t;
    static constexpr Handle kNone = 0xffffffffu;

    explicit SchedQueue(unsigned num_banks);

    /** Append a request (must have flatBank decoded); returns its handle. */
    Handle push(Request &&req);

    /** Unlink and return the request at `h`. */
    Request take(Handle h);

    Request &at(Handle h) { return nodes[h].req; }
    const Request &at(Handle h) const { return nodes[h].req; }
    std::uint64_t seqOf(Handle h) const { return nodes[h].seq; }

    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }

    /** Global age-order iteration (oldest first). */
    Handle oldest() const { return head; }
    Handle next(Handle h) const { return nodes[h].next; }

    /** Per-bank age-order iteration (oldest first). */
    Handle bankOldest(unsigned fb) const { return banks[fb].head; }
    Handle bankNext(Handle h) const { return nodes[h].bankNext; }
    std::uint32_t bankCount(unsigned fb) const { return banks[fb].count; }

    /** Banks currently holding at least one request (unordered). */
    const std::vector<unsigned> &activeBanks() const { return active; }

    /** Row-hit statistics of one bank against its current open row. */
    struct BankHits
    {
        std::uint32_t hitCount = 0;     ///< requests matching the open row
        Handle oldestHit = kNone;       ///< oldest such request
    };

    /**
     * Hit statistics of bank `fb` against `bank`'s open-row state,
     * recomputed only when the bank's row state or request set changed
     * since the cached value. Only meaningful for open banks.
     */
    const BankHits &hitStats(unsigned fb, const Bank &bank);

  private:
    struct Node
    {
        Request req;
        std::uint64_t seq = 0;
        Handle prev = kNone, next = kNone;          ///< global age list
        Handle bankPrev = kNone, bankNext = kNone;  ///< per-bank age list
        unsigned bank = 0;
    };

    /** Per-bank bucket plus the lazily revalidated hit cache. */
    struct BankState
    {
        Handle head = kNone, tail = kNone;
        std::uint32_t count = 0;
        std::uint32_t activePos = 0xffffffffu;  ///< index into `active`
        std::uint64_t version = 0;      ///< bumped on push/take for the bank
        // Cache key: queue version + open-row state when computed.
        std::uint64_t cachedVersion = ~0ull;
        bool cachedOpen = false;
        RowId cachedRow = 0;
        BankHits hits;
    };

    std::vector<Node> nodes;
    Handle freeHead = kNone;
    Handle head = kNone, tail = kNone;
    std::size_t count = 0;
    std::uint64_t nextSeq = 0;
    std::vector<BankState> banks;
    std::vector<unsigned> active;
};

/**
 * FR-FCFS policy over SchedQueues. Holds per-bank scratch state sized from
 * the device (the controller owns one instance per channel).
 */
class FrFcfsScheduler
{
  public:
    /**
     * Predicate deciding if a request's ACT may be issued (mitigation).
     * The predicates are non-owning references: the caller's callable
     * must outlive the pick call.
     */
    using ActFilter = FunctionRef<bool(const Request &)>;

    /**
     * Predicate deciding if a bank's row-hit streak has been capped:
     * capped banks stop serving further row hits (and may be closed) so
     * one streaming thread cannot capture a bank indefinitely.
     */
    using StreakCapped = FunctionRef<bool(unsigned bank)>;

    explicit FrFcfsScheduler(unsigned num_banks);

    /**
     * Pick the oldest row-buffer-hit request whose column command is legal
     * at `now`, or kNone. Hits to streak-capped banks are skipped when an
     * older conflicting request is waiting.
     */
    SchedQueue::Handle
    pickColumnReady(SchedQueue &queue, ReqType type, const DramDevice &dram,
                    Cycle now, StreakCapped capped);

    /**
     * Pick the oldest request that needs (and can start) row preparation:
     * an ACT on a closed bank or a PRE on a conflicting open row.
     *
     * Skips banks where a row-hit request is still pending (don't close
     * useful rows — unless the bank's streak is capped) and requests whose
     * ACT the mitigation blocks — this is how RowHammer-safe requests are
     * prioritized over unsafe ones (Section 3.1 of the paper). The
     * mitigation filter is evaluated in global age order, exactly as the
     * full-walk implementation did, so safety-query side effects (delay
     * accounting, blocked counters) are bit-compatible.
     */
    SchedQueue::Handle
    pickRowPrep(SchedQueue &queue, const DramDevice &dram, Cycle now,
                ActFilter act_allowed, StreakCapped capped);

    /**
     * Earliest future cycle at which a demand command for `queue` could
     * become issuable, assuming no intervening state change. Banks whose
     * ACT was already legal at the controller's last executed tick
     * (`last_tick_at`) yet went unissued are mitigation-blocked and
     * contribute `verdict_change_at` (the mitigation's next possible
     * verdict flip). Returns kNoEventCycle when the queue presents no
     * candidates. Conservative: may return a cycle at which nothing is
     * issuable yet, never one that skips over an issue opportunity.
     */
    Cycle nextDemandEventAt(SchedQueue &queue, ReqType type,
                            const DramDevice &dram, Cycle last_tick_at,
                            StreakCapped capped, Cycle verdict_change_at);

  private:
    /** A closed bank's next request in a safety-query replay. */
    struct Cursor
    {
        std::uint64_t seq = 0;
        SchedQueue::Handle handle = SchedQueue::kNone;
    };

    /**
     * True when no bank's prep command can be picked at `now`, so the
     * walk would return kNone. A bank could be picked when it is open
     * with a conflicting request, no live row hit (or a capped streak)
     * and a legal PRE, or closed with a legal ACT. O(active banks) and
     * pure; on true, `cursors` holds every closed bank's oldest request.
     */
    bool noPrepCandidate(SchedQueue &queue, const DramDevice &dram,
                         Cycle now, StreakCapped capped);

    /**
     * Make the safety queries of a walk that returns kNone, in the same
     * order, without walking the global queue. Only valid right after
     * noPrepCandidate() returned true.
     */
    void replaySafetyQueries(SchedQueue &queue, ActFilter act_allowed);

    /**
     * Generation-stamped per-bank "already considered for prep" marks.
     * 64-bit so the generation can never wrap into a stale mark over
     * any realistic run length.
     */
    std::vector<std::uint64_t> prepMark;
    std::uint64_t prepGen = 0;
    std::vector<Cursor> cursors;    ///< replaySafetyQueries scratch
};

} // namespace bh

#endif // BH_MEM_SCHEDULER_HH
