#include "core/core.hh"

#include <algorithm>

namespace bh
{

Core::Core(const CoreConfig &config, ThreadId thread_id, TraceSource &trace_src,
           Llc *llc_ptr, MemSystem &mem_system)
    : cfg(config), thread(thread_id), trace(trace_src), llc(llc_ptr),
      mem(mem_system)
{
}

void
Core::tick(Cycle now)
{
    std::uint64_t stamp_at_entry = progressStamp();

    // Retire in order, up to retireWidth per cycle. A memory instruction at
    // the window head blocks retirement until its data has returned.
    // Runs of non-memory instructions retire in one arithmetic step.
    for (unsigned r = 0; r < cfg.retireWidth;) {
        if (instrRetired >= instrIssued)
            break;
        if (!pending.empty() && pending.front().pos == instrRetired) {
            Cycle done = pending.front().slot->done;
            if (done < 0 || done > now)
                break;
            pending.pop_front();
            ++instrRetired;
            ++r;
            continue;
        }
        std::uint64_t stop = pending.empty()
            ? instrIssued : pending.front().pos;
        std::uint64_t k = std::min<std::uint64_t>(
            cfg.retireWidth - r, std::min(instrIssued, stop) - instrRetired);
        instrRetired += k;
        r += static_cast<unsigned>(k);
    }

    // Issue in order, up to issueWidth per cycle, bounded by the window.
    // Bubble runs issue in one arithmetic step.
    bool stalled = false;
    bool fetched = false;
    for (unsigned w = 0; w < cfg.issueWidth;) {
        std::uint64_t room = cfg.windowSize - (instrIssued - instrRetired);
        if (room == 0)
            break;
        if (pendingBubbles > 0) {
            std::uint64_t k = std::min<std::uint64_t>(
                {pendingBubbles, cfg.issueWidth - w, room});
            pendingBubbles -= static_cast<std::uint32_t>(k);
            instrIssued += k;
            w += static_cast<unsigned>(k);
            continue;
        }
        if (havePendingMem) {
            if (!issueMemOp(now)) {
                stalled = true;
                break;      // resource rejection; retry next cycle
            }
            havePendingMem = false;
            ++instrIssued;
            ++w;
            continue;
        }
        if (traceEnded)
            break;
        TraceEntry entry;
        if (!trace.next(entry)) {
            traceEnded = true;
            break;
        }
        pendingBubbles = entry.bubbles;
        if (entry.isMem) {
            havePendingMem = true;
            pendingMem = entry;
        }
        fetched = true;
        ++w;    // the fetch consumes this issue slot
    }
    lastTickStalled = stalled;
    if (stalled)
        ++numStallCycles;
    // Quiet means repeating this tick stays behavior-identical until
    // nextEventAt() or a completion delivery: nothing retired, issued,
    // or fetched (fetches mutate state without moving the stamp), and
    // any stall is delivery-bound — queue-full stalls probe lane state
    // that can change on any controller tick, so they must re-run every
    // cycle. This is the precondition for the chunked multi-channel
    // driver to replace core ticks with noteSkippedCycles().
    lastTickQuiet = !fetched && progressStamp() == stamp_at_entry &&
        (!stalled || stallDeliveryBound);
}

Cycle
Core::nextEventAt() const
{
    Cycle best = kNoEventCycle;
    // In-order retirement: only the window head matters. Its completion
    // time is known once the memory system has issued the access.
    if (!pending.empty() && pending.front().pos == instrRetired) {
        Cycle done = pending.front().slot->done;
        if (done >= 0)
            best = done;
    }
    // A rejected memory issue can also unblock by time alone: the
    // MSHR-style outstanding bound drops when any in-flight op reaches
    // its completion time.
    if (lastTickStalled && !mlp->knownDone.empty())
        best = std::min(best, mlp->knownDone.top());
    return best;
}

bool
Core::issueMemOp(Cycle now)
{
    // L1-MSHR-style bound on memory-level parallelism. The bound drops
    // by time alone (knownDone) or at a completion delivery — both
    // boundaries the chunked driver observes, so this stall flavor is
    // chunk-safe.
    stallDeliveryBound = true;
    if (mlp->outstandingAt(now) >= cfg.maxOutstandingMem)
        return false;

    // Reuse the completion slot across retries of the same rejected op.
    if (!retrySlot)
        retrySlot = std::make_shared<MemSlot>();
    std::shared_ptr<MemSlot> slot = retrySlot;
    auto on_done = [state = mlp, slot](Cycle done) {
        slot->done = done;
        if (slot->counted) {
            slot->counted = false;
            --state->unknown;
        }
        state->knownDone.push(done);
    };

    // Past the MLP gate, rejections hinge on queue/quota state a channel
    // lane can change on any tick: the core must retry every cycle.
    stallDeliveryBound = false;

    if (pendingMem.bypassCache || !llc) {
        // Cheap pre-gate: a full target queue rejects the submit anyway.
        if (mem.queueFull(pendingMem.isWrite ? ReqType::kWrite
                                             : ReqType::kRead,
                          pendingMem.addr))
            return false;
        Request req;
        req.addr = pendingMem.addr;
        req.type = pendingMem.isWrite ? ReqType::kWrite : ReqType::kRead;
        req.thread = thread;
        req.arrival = now;
        if (pendingMem.isWrite) {
            // Posted write: completes once accepted.
            if (mem.submit(std::move(req)) != SubmitResult::kAccepted)
                return false;
            slot->done = now + 1;
            mlp->knownDone.push(slot->done);
        } else {
            req.onComplete = on_done;
            if (mem.submit(std::move(req)) != SubmitResult::kAccepted)
                return false;
        }
    } else {
        if (pendingMem.isWrite) {
            // Stores are posted: retire once the LLC accepts them.
            LlcResult res = llc->access(pendingMem.addr, true, thread, now,
                                        nullptr);
            if (res == LlcResult::kReject) {
                stallDeliveryBound = true;
                return false;
            }
            if (res == LlcResult::kRejectQueueFull)
                return false;
            slot->done = now + 1;
            mlp->knownDone.push(slot->done);
        } else {
            LlcResult res = llc->access(pendingMem.addr, false, thread, now,
                                        on_done);
            if (res == LlcResult::kReject) {
                stallDeliveryBound = true;
                return false;
            }
            if (res == LlcResult::kRejectQueueFull)
                return false;
        }
    }
    // Completion still unknown (no callback fired yet): count the op as
    // outstanding until its time arrives.
    if (slot->done < 0) {
        slot->counted = true;
        ++mlp->unknown;
    }
    pending.push_back(MemOp{instrIssued, std::move(slot)});
    retrySlot.reset();      // consumed; next op gets a fresh slot
    ++numMemOps;
    return true;
}

} // namespace bh
