#include "mem/scheduler.hh"

#include <algorithm>

#include "common/log.hh"

namespace bh
{

SchedQueue::SchedQueue(unsigned num_banks) : banks(num_banks)
{
}

SchedQueue::Handle
SchedQueue::push(Request &&req)
{
    Handle h;
    if (freeHead != kNone) {
        h = freeHead;
        freeHead = nodes[h].next;
        nodes[h].req = std::move(req);
    } else {
        h = static_cast<Handle>(nodes.size());
        nodes.push_back(Node{});
        nodes[h].req = std::move(req);
    }
    Node &n = nodes[h];
    n.seq = nextSeq++;
    n.bank = n.req.flatBank;
    if (n.bank >= banks.size())
        panic("SchedQueue: bank %u out of range (%zu banks)", n.bank,
              banks.size());

    // Global age list append.
    n.prev = tail;
    n.next = kNone;
    if (tail != kNone)
        nodes[tail].next = h;
    else
        head = h;
    tail = h;

    // Per-bank list append.
    BankState &b = banks[n.bank];
    n.bankPrev = b.tail;
    n.bankNext = kNone;
    if (b.tail != kNone)
        nodes[b.tail].bankNext = h;
    else
        b.head = h;
    b.tail = h;
    if (b.count++ == 0) {
        b.activePos = static_cast<std::uint32_t>(active.size());
        active.push_back(n.bank);
    }
    ++b.version;
    ++count;
    return h;
}

Request
SchedQueue::take(Handle h)
{
    Node &n = nodes[h];
    // Global list unlink.
    if (n.prev != kNone)
        nodes[n.prev].next = n.next;
    else
        head = n.next;
    if (n.next != kNone)
        nodes[n.next].prev = n.prev;
    else
        tail = n.prev;

    // Per-bank list unlink.
    BankState &b = banks[n.bank];
    if (n.bankPrev != kNone)
        nodes[n.bankPrev].bankNext = n.bankNext;
    else
        b.head = n.bankNext;
    if (n.bankNext != kNone)
        nodes[n.bankNext].bankPrev = n.bankPrev;
    else
        b.tail = n.bankPrev;
    if (--b.count == 0) {
        // Swap-remove from the active-bank list, fixing the moved bank's
        // back-pointer. Pick order never depends on this list's order
        // (min-seq scans), so the shuffle is invisible.
        unsigned moved = active.back();
        active[b.activePos] = moved;
        banks[moved].activePos = b.activePos;
        active.pop_back();
        b.activePos = 0xffffffffu;
    }
    ++b.version;
    --count;

    Request out = std::move(n.req);
    n.req = Request{};      // release the completion closure eagerly
    n.next = freeHead;
    freeHead = h;
    return out;
}

const SchedQueue::BankHits &
SchedQueue::hitStats(unsigned fb, const Bank &bank)
{
    BankState &b = banks[fb];
    bool open = bank.isOpen();
    RowId row = open ? bank.openRow() : 0;
    if (b.cachedVersion == b.version && b.cachedOpen == open &&
        (!open || b.cachedRow == row)) {
        return b.hits;
    }
    b.hits.hitCount = 0;
    b.hits.oldestHit = kNone;
    if (open) {
        for (Handle h = b.head; h != kNone; h = nodes[h].bankNext) {
            if (nodes[h].req.coord.row == row) {
                if (b.hits.oldestHit == kNone)
                    b.hits.oldestHit = h;
                ++b.hits.hitCount;
            }
        }
    }
    b.cachedVersion = b.version;
    b.cachedOpen = open;
    b.cachedRow = row;
    return b.hits;
}

FrFcfsScheduler::FrFcfsScheduler(unsigned num_banks)
    : prepMark(num_banks, 0)
{
}

SchedQueue::Handle
FrFcfsScheduler::pickColumnReady(SchedQueue &queue, ReqType type,
                                 const DramDevice &dram, Cycle now,
                                 StreakCapped capped)
{
    DramCommand cmd = (type == ReqType::kRead)
        ? DramCommand::kRd : DramCommand::kWr;
    // Rank-level column gate (tCCD, bus turnaround) applies to every bank.
    if (dram.columnEarliest(cmd) > now)
        return SchedQueue::kNone;

    SchedQueue::Handle best = SchedQueue::kNone;
    std::uint64_t best_seq = 0;
    for (unsigned fb : queue.activeBanks()) {
        const Bank &bank = dram.bank(fb);
        if (!bank.isOpen())
            continue;
        const auto &hits = queue.hitStats(fb, bank);
        if (hits.hitCount == 0)
            continue;
        // A capped bank only stops serving hits if someone is waiting for
        // a different row in it; otherwise capping would waste bandwidth.
        bool conflict_waiting = queue.bankCount(fb) > hits.hitCount;
        if (conflict_waiting && capped && capped(fb))
            continue;
        if (bank.earliest(cmd) > now)
            continue;
        std::uint64_t seq = queue.seqOf(hits.oldestHit);
        if (best == SchedQueue::kNone || seq < best_seq) {
            best = hits.oldestHit;
            best_seq = seq;
        }
    }
    return best;
}

SchedQueue::Handle
FrFcfsScheduler::pickRowPrep(SchedQueue &queue, const DramDevice &dram,
                             Cycle now, ActFilter act_allowed,
                             StreakCapped capped)
{
    if (queue.empty())
        return SchedQueue::kNone;
    if (noPrepCandidate(queue, dram, now, capped)) {
        replaySafetyQueries(queue, act_allowed);
        return SchedQueue::kNone;
    }
    ++prepGen;

    // Only the oldest request per bank may prepare that bank this cycle;
    // an unsafe (mitigation-blocked) oldest request does not stop a younger
    // safe request to the same bank from being considered.
    for (SchedQueue::Handle h = queue.oldest(); h != SchedQueue::kNone;
         h = queue.next(h)) {
        const Request &req = queue.at(h);
        unsigned fb = req.flatBank;
        if (prepMark[fb] == prepGen)
            continue;
        const Bank &bank = dram.bank(fb);
        if (bank.isOpen()) {
            if (bank.openRow() == req.coord.row)
                continue;   // column path will serve it
            // Banks with a pending row hit keep their row open — unless
            // their hit streak has been capped.
            const auto &hits = queue.hitStats(fb, bank);
            if (hits.hitCount > 0 && !(capped && capped(fb)))
                continue;   // row reuse pending; don't close
            if (dram.canIssue(DramCommand::kPre, fb, now))
                return h;
            prepMark[fb] = prepGen;
        } else {
            if (!act_allowed(req))
                continue;   // blocked as RowHammer-unsafe; try younger ones
            if (dram.canIssue(DramCommand::kAct, fb, now))
                return h;
            prepMark[fb] = prepGen;
        }
    }
    return SchedQueue::kNone;
}

bool
FrFcfsScheduler::noPrepCandidate(SchedQueue &queue, const DramDevice &dram,
                                 Cycle now, StreakCapped capped)
{
    // The walk can only return a request of a bank that fails this
    // check; a closed bank with a legal ACT counts even though all its
    // requests may turn out unsafe (only the walk can tell).
    cursors.clear();
    for (unsigned fb : queue.activeBanks()) {
        const Bank &bank = dram.bank(fb);
        if (bank.isOpen()) {
            const auto &hits = queue.hitStats(fb, bank);
            if (queue.bankCount(fb) == hits.hitCount)
                continue;   // no conflicting request to precharge for
            if (hits.hitCount > 0 && !(capped && capped(fb)))
                continue;   // row reuse pending; don't close
            if (dram.canIssue(DramCommand::kPre, fb, now))
                return false;
        } else {
            if (dram.canIssue(DramCommand::kAct, fb, now))
                return false;
            SchedQueue::Handle h = queue.bankOldest(fb);
            cursors.push_back(Cursor{queue.seqOf(h), h});
        }
    }
    return true;
}

void
FrFcfsScheduler::replaySafetyQueries(SchedQueue &queue,
                                     ActFilter act_allowed)
{
    // With no bank able to PRE or ACT, the walk's only side effects are
    // its safety queries: per closed bank, every request up to and
    // including the first safe one (the bank is then marked), in global
    // age order. Merging the closed banks' age lists by sequence number
    // makes exactly those queries in exactly that order. `cursors` holds
    // each closed bank's next request, sorted by age from index i on.
    auto older = [](const Cursor &a, const Cursor &b) { return a.seq < b.seq; };
    std::sort(cursors.begin(), cursors.end(), older);
    for (std::size_t i = 0; i < cursors.size();) {
        SchedQueue::Handle h = cursors[i].handle;
        SchedQueue::Handle next = queue.bankNext(h);
        if (act_allowed(queue.at(h)) || next == SchedQueue::kNone) {
            ++i;    // bank done: first safe request, or list exhausted
            continue;
        }
        // Advance this bank and sift it back into age order.
        Cursor c{queue.seqOf(next), next};
        std::size_t j = i;
        for (; j + 1 < cursors.size() && cursors[j + 1].seq < c.seq; ++j)
            cursors[j] = cursors[j + 1];
        cursors[j] = c;
    }
}

Cycle
FrFcfsScheduler::nextDemandEventAt(SchedQueue &queue, ReqType type,
                                   const DramDevice &dram, Cycle last_tick_at,
                                   StreakCapped capped,
                                   Cycle verdict_change_at)
{
    DramCommand cmd = (type == ReqType::kRead)
        ? DramCommand::kRd : DramCommand::kWr;
    Cycle col_gate = dram.columnEarliest(cmd);
    Cycle best = kNoEventCycle;
    for (unsigned fb : queue.activeBanks()) {
        const Bank &bank = dram.bank(fb);
        if (bank.isOpen()) {
            const auto &hits = queue.hitStats(fb, bank);
            bool cap = capped && capped(fb);
            bool conflict = queue.bankCount(fb) > hits.hitCount;
            if (hits.hitCount > 0 && !(cap && conflict))
                best = std::min(best,
                                std::max(bank.earliest(cmd), col_gate));
            // A conflicting request may close the row unless a live (not
            // capped) hit keeps it open.
            if (conflict && !(hits.hitCount > 0 && !cap))
                best = std::min(best, bank.earliest(DramCommand::kPre));
        } else {
            Cycle act = dram.earliest(DramCommand::kAct, fb);
            // An ACT that was already legal at the last executed tick and
            // still was not issued is mitigation-blocked: its verdict can
            // only flip at the mitigation's next time-driven state change.
            // Later ACT-ready times are ordinary timing candidates (the
            // controller simply has not ticked since they became legal).
            best = std::min(best,
                            act > last_tick_at ? act : verdict_change_at);
        }
    }
    return best;
}

} // namespace bh
