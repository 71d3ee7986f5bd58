#include "sim/system.hh"

#include <algorithm>
#include <atomic>

#include "common/log.hh"
#include "common/trace_sink.hh"

namespace bh
{

namespace
{

thread_local std::uint64_t tlsSimCycles = 0;
std::atomic<std::uint64_t> allSimCycles{0};

std::vector<std::unique_ptr<Mitigation>>
buildPerChannel(const SystemConfig &cfg, const MitigationFactory &factory)
{
    std::vector<std::unique_ptr<Mitigation>> v;
    for (unsigned ch = 0; ch < cfg.mem.org.channels; ++ch)
        v.push_back(factory(ch));
    return v;
}

} // namespace

std::uint64_t
simCyclesThisThread()
{
    return tlsSimCycles;
}

void
resetSimCyclesThisThread()
{
    tlsSimCycles = 0;
}

std::uint64_t
simCyclesTotal()
{
    return allSimCycles.load(std::memory_order_relaxed);
}

System::System(const SystemConfig &config, const MitigationFactory &factory)
    : cfg(config)
{
    memSys = std::make_unique<MemSystem>(
        cfg.mem, buildPerChannel(cfg, factory));
    // --skip off is the end-to-end reference: no fast paths anywhere.
    for (unsigned ch = 0; ch < memSys->channels(); ++ch)
        memSys->controller(ch).setFastIdleTicks(
            cfg.skip != SkipMode::kCycleByCycle);
    if (cfg.channelThreads > 1 && memSys->channels() > 1)
        lanePool = std::make_unique<ChannelPool>(
            std::min(cfg.channelThreads, memSys->channels()));
    if (cfg.useLlc)
        llcPtr = std::make_unique<Llc>(cfg.llc, *memSys);
    traces.resize(cfg.threads);
    cores.resize(cfg.threads);
    // Trace identity: one pid per simulated system, one tid per channel
    // lane, tid == channel count for driver-level spans. Assignment is
    // observation-only — simulation state never depends on it.
    if (TraceSink::on()) {
        std::uint32_t pid = TraceSink::newPid();
        for (unsigned ch = 0; ch < memSys->channels(); ++ch) {
            TraceMeta meta{pid, ch};
            memSys->controller(ch).setTraceMeta(meta);
            memSys->controller(ch).mitigation().setTraceMeta(meta);
        }
        driverMeta = TraceMeta{pid, memSys->channels()};
    }
}

System::System(const SystemConfig &config,
               std::unique_ptr<Mitigation> mitigation)
    : System(config,
             [&mitigation](unsigned ch) {
                 if (ch != 0 || !mitigation)
                     fatal("System: a multi-channel system needs a "
                           "MitigationFactory (one instance per channel)");
                 return std::move(mitigation);
             })
{
}

void
System::setTrace(unsigned slot, std::unique_ptr<TraceSource> trace)
{
    setTrace(slot, std::move(trace), cfg.core);
}

void
System::setTrace(unsigned slot, std::unique_ptr<TraceSource> trace,
                 const CoreConfig &core_cfg)
{
    if (slot >= cfg.threads)
        fatal("trace slot %u out of range", slot);
    // Requests in flight hold their core by pointer; replacing a core
    // once the system runs would leave their callbacks dangling.
    if (started)
        fatal("System::setTrace: slot %u set after run() started", slot);
    traces[slot] = std::move(trace);
    cores[slot] = std::make_unique<Core>(
        core_cfg, static_cast<ThreadId>(slot), *traces[slot],
        llcPtr.get(), *memSys);
}

std::uint64_t
System::progressStamp() const
{
    std::uint64_t s = memSys->activityStamp();
    for (const auto &core : cores)
        s += core->progressStamp();
    if (llcPtr)
        s += llcPtr->writebacks();
    return s;
}

Cycle
System::nextEventAt(Cycle end)
{
    Cycle target = end;
    for (const auto &core : cores) {
        Cycle e = core->nextEventAt();
        if (e != kNoEventCycle)
            target = std::min(target, e);
    }
    // A pending completion delivery is an event: its callback mutates
    // core/LLC state at exactly its due cycle (multi-channel only; the
    // single-channel heap is always empty).
    Cycle due = memSys->nextCompletionAt();
    if (due != kNoEventCycle)
        target = std::min(target, due);
    // Controllers only act on their own clock: align their event up to
    // the next controller tick. (Core events stay cycle-exact.)
    Cycle divider = std::max<Cycle>(1, cfg.mcClockDivider);
    Cycle mc = memSys->nextEventAt(currentCycle);
    if (mc != kNoEventCycle) {
        Cycle aligned = ((mc + divider - 1) / divider) * divider;
        target = std::min(target, aligned);
    }
    return std::max(target, currentCycle);
}

Cycle
System::chunkTargetAt(Cycle end) const
{
    // Every core and the LLC must be provably quiet: their ticks over the
    // chunk are no-ops given no completion delivery, so only lanes run.
    for (const auto &core : cores)
        if (!core->quietTick())
            return currentCycle;
    if (llcPtr && !llcPtr->quiet())
        return currentCycle;

    Cycle target = end;
    // A core wakes on its own at its window head's known completion time.
    for (const auto &core : cores) {
        Cycle e = core->nextEventAt();
        if (e != kNoEventCycle)
            target = std::min(target, e);
    }
    // Already-buffered completions must be delivered at their due cycle.
    Cycle due = memSys->nextCompletionAt();
    if (due != kNoEventCycle)
        target = std::min(target, due);
    // Completions produced inside the chunk complete no earlier than
    // first-lane-tick + minCompletionLatency; ending the chunk there
    // guarantees no delivery ever lands mid-chunk.
    Cycle divider = std::max<Cycle>(1, cfg.mcClockDivider);
    Cycle first_mc = ((currentCycle + divider - 1) / divider) * divider;
    target = std::min(target, first_mc + memSys->minCompletionLatency());
    return std::max(target, currentCycle);
}

void
System::runLaneChunk(Cycle target)
{
    Cycle chunkStart = currentCycle;
    Cycle divider = std::max<Cycle>(1, cfg.mcClockDivider);
    Cycle first_mc = ((currentCycle + divider - 1) / divider) * divider;
    unsigned channels = memSys->channels();
    if (first_mc < target) {
        std::uint64_t mc_ticks = static_cast<std::uint64_t>(
            (target - first_mc + divider - 1) / divider);
        auto tick_lane = [&](unsigned ch) {
            MemController &ctrl = memSys->controller(ch);
            Cycle c = first_mc;
            while (c < target) {
                ctrl.tick(c);
                c += divider;
                // A lane that just went idle replays the rest of its
                // provably quiet ticks in one batched step — the same
                // per-tick bookkeeping its internal fast path would do,
                // so chunked and cycle-by-cycle stay bit-identical.
                if (c >= target || !ctrl.idleSinceLastTick())
                    continue;
                Cycle bound = ctrl.nextEventAt(c - divider);
                Cycle resume = ((bound + divider - 1) / divider) * divider;
                Cycle stop = std::min(resume, target);
                if (stop <= c)
                    continue;
                std::uint64_t k = static_cast<std::uint64_t>(
                    (stop - c + divider - 1) / divider);
                ctrl.noteSkippedTicks(k);
                c += static_cast<Cycle>(k) * divider;
            }
        };
        // The pool is a pure execution strategy: lane work is
        // data-independent, so inline and pooled rounds are identical.
        // Tiny chunks skip the wake-up cost.
        if (lanePool && mc_ticks * channels >= 32) {
            lanePool->run(channels, tick_lane);
        } else {
            for (unsigned ch = 0; ch < channels; ++ch)
                tick_lane(ch);
        }
        memSys->flushCompletions();
    }
    // Quiet cores skip their ticks; delivery-bound stalled cores would
    // have re-attempted (and failed) the same issue every cycle — replay
    // that stall accounting exactly as the full-idle skip does.
    std::uint64_t k_cpu = static_cast<std::uint64_t>(target - currentCycle);
    for (auto &core : cores)
        core->noteSkippedCycles(k_cpu);
    numChunked += k_cpu;
    currentCycle = target;
    if (TraceSink::on()) {
        TraceSink::complete(
            "lane", "chunk", driverMeta, chunkStart, target - chunkStart,
            {{"channels", static_cast<std::int64_t>(channels)}});
    }
}

void
System::run(Cycle cycles)
{
    for (unsigned t = 0; t < cfg.threads; ++t)
        if (!cores[t])
            fatal("core slot %u has no trace installed", t);
    started = true;

    // Perf telemetry: all of [currentCycle, end) is simulated time, no
    // matter how it is covered (executed, chunked, or skipped).
    tlsSimCycles += static_cast<std::uint64_t>(cycles);
    allSimCycles.fetch_add(static_cast<std::uint64_t>(cycles),
                           std::memory_order_relaxed);

    Cycle end = currentCycle + cycles;
    Cycle divider = std::max<Cycle>(1, cfg.mcClockDivider);
    unsigned n = static_cast<unsigned>(cores.size());
    bool track = cfg.skip != SkipMode::kCycleByCycle;
    bool multi = memSys->channels() > 1;
    while (currentCycle < end) {
        // Completions due this cycle mutate core/LLC state before any
        // component ticks (multi-channel; single-channel delivers inline
        // at issue, the legacy path).
        if (multi)
            memSys->deliverCompletionsDue(currentCycle);
        std::uint64_t before = track ? progressStamp() : 0;
        // Rotate the tick order so no core gets a systematic head start
        // when racing for shared queue slots.
        unsigned first = static_cast<unsigned>(currentCycle) % n;
        for (unsigned i = 0; i < n; ++i) {
            Core &core = *cores[(first + i) % n];
            if (!track) {
                core.tick(currentCycle);
                continue;
            }
            // Sleeping cores (see Core::settle) are checked at their slot
            // in the rotation, so a wake-up delivered earlier this cycle
            // runs the core exactly where a cycle-by-cycle run would.
            if (core.sleeping(currentCycle, llcFills())) {
                if (cfg.skip != SkipMode::kVerify) {
                    core.noteSkippedCycles(1);
                    continue;
                }
                // Verify: tick anyway and check the sleep claim.
                std::uint64_t stamp = core.progressStamp();
                core.tick(currentCycle);
                if (core.progressStamp() != stamp || !core.quietTick())
                    panic("event-skip verify: core %d progressed at cycle "
                          "%lld while claimed asleep",
                          static_cast<int>(core.threadId()),
                          static_cast<long long>(currentCycle));
            } else {
                core.tick(currentCycle);
            }
            core.settle(llcFills(), !llcPtr || llcPtr->quiet());
        }
        if (llcPtr)
            llcPtr->tick(currentCycle);
        if (currentCycle % divider == 0)
            memSys->tick(currentCycle);
        Cycle ticked = currentCycle;
        ++currentCycle;

        if (!track)
            continue;
        bool progressed = progressStamp() != before;
        bool idle = !progressed && memSys->allIdleSinceLastTick();

        if (cfg.skip == SkipMode::kVerify) {
            // Cross-check: any progress inside a previously claimed quiet
            // region falsifies the skip analysis.
            if (progressed && ticked < verifiedQuietUntil)
                panic("event-skip verify: progress at cycle %lld inside a "
                      "region claimed quiet until %lld",
                      static_cast<long long>(ticked),
                      static_cast<long long>(verifiedQuietUntil));
            if (idle)
                verifiedQuietUntil =
                    std::max(verifiedQuietUntil, nextEventAt(end));
            continue;
        }

        if (!idle) {
            // Lanes busy, but cores/LLC quiet? Tick lanes alone over a
            // barrier-synced chunk (bit-exact to cycle-by-cycle: see
            // chunkTargetAt). Meaningless for one channel, where the
            // whole cycle is the lane tick.
            if (multi) {
                Cycle target = chunkTargetAt(end);
                if (target > currentCycle)
                    runLaneChunk(target);
            }
            continue;
        }
        Cycle target = nextEventAt(end);
        if (target <= currentCycle)
            continue;

        // Jump. Replay the per-tick counters the eliminated cycles would
        // have produced: each skipped controller tick repeats the last
        // executed (idle) tick's bookkeeping; stalled cores accrue their
        // per-cycle stall accounting.
        std::uint64_t k_cpu =
            static_cast<std::uint64_t>(target - currentCycle);
        auto mc_ticks_before = [&](Cycle c) {
            return static_cast<std::uint64_t>((c + divider - 1) / divider);
        };
        std::uint64_t k_mc =
            mc_ticks_before(target) - mc_ticks_before(currentCycle);
        for (auto &core : cores)
            core->noteSkippedCycles(k_cpu);
        if (k_mc > 0)
            memSys->noteSkippedTicks(k_mc);
        numSkipped += k_cpu;
        if (TraceSink::on()) {
            TraceSink::complete(
                "skip", "jump", driverMeta, currentCycle,
                target - currentCycle,
                {{"mc_ticks", static_cast<std::int64_t>(k_mc)}});
        }
        currentCycle = target;
    }
}

void
System::startMeasurement()
{
    measureStart = currentCycle;
    energyAtMeasureStart = memSys->totalEnergy(currentCycle);
    retiredAtMeasureStart.clear();
    for (auto &core : cores)
        retiredAtMeasureStart.push_back(core ? core->retired() : 0);
}

double
System::ipc(unsigned slot) const
{
    Cycle window = currentCycle - measureStart;
    if (window <= 0)
        return 0.0;
    std::uint64_t base = slot < retiredAtMeasureStart.size()
        ? retiredAtMeasureStart[slot] : 0;
    return static_cast<double>(cores[slot]->retired() - base) /
        static_cast<double>(window);
}

} // namespace bh
