#include "cache/llc.hh"

#include "common/bitutils.hh"
#include "common/log.hh"

namespace bh
{

Llc::Llc(const LlcConfig &config, MemSystem &mem_system)
    : cfg(config), mem(mem_system)
{
    numSets = cfg.capacityBytes / (static_cast<std::uint64_t>(cfg.ways) *
                                   kLineBytes);
    if (numSets == 0)
        fatal("LLC capacity too small");
    lines.assign(numSets * cfg.ways, Line{});
}

Llc::Line *
Llc::findLine(Addr line)
{
    std::size_t base = setIndex(line) * cfg.ways;
    for (unsigned w = 0; w < cfg.ways; ++w) {
        Line &l = lines[base + w];
        if (l.valid && l.tag == line)
            return &l;
    }
    return nullptr;
}

LlcResult
Llc::access(Addr addr, bool is_write, ThreadId thread, Cycle now,
            std::function<void(Cycle)> on_done)
{
    // Stalled writebacks gate new allocations to bound buffering.
    if (!wbRetry.empty()) {
        tick(now);
        if (wbRetry.size() > 4)
            return LlcResult::kRejectQueueFull;
    }

    Addr line = lineAddr(addr);
    auto &tstats = threadStatsMutable(thread);

    if (Line *l = findLine(line)) {
        l->lastUse = ++useCounter;
        if (is_write)
            l->dirty = true;
        ++numHits;
        ++tstats.accesses;
        if (on_done)
            on_done(now + cfg.hitLatency);
        return LlcResult::kHit;
    }

    // Miss: merge into an existing MSHR if the fill is already in flight.
    if (auto it = mshr.find(line); it != mshr.end()) {
        if (on_done)
            it->second.waiters.push_back(std::move(on_done));
        it->second.writeIntent |= is_write;
        ++numMisses;
        ++tstats.accesses;
        ++tstats.misses;
        return LlcResult::kMiss;
    }

    if (mshr.size() >= cfg.mshrs)
        return LlcResult::kReject;
    if (mem.queueFull(ReqType::kRead, line * kLineBytes))
        return LlcResult::kRejectQueueFull;  // the submit would bounce

    Request req;
    req.addr = line * kLineBytes;
    req.type = ReqType::kRead;      // write-allocate fetches the line
    req.thread = thread;
    req.arrival = now;
    req.onComplete = [this, line](Cycle done) {
        auto it = mshr.find(line);
        if (it == mshr.end())
            panic("LLC fill completion without MSHR entry");
        MshrEntry entry = std::move(it->second);
        mshr.erase(it);
        Cycle ready = done + cfg.fillLatency;
        installLine(line, entry.writeIntent, ready);
        for (auto &w : entry.waiters)
            w(ready);
    };

    if (mem.submit(std::move(req)) != SubmitResult::kAccepted)
        return LlcResult::kRejectQueueFull;

    MshrEntry entry;
    if (on_done)
        entry.waiters.push_back(std::move(on_done));
    entry.writeIntent = is_write;
    entry.thread = thread;
    mshr.emplace(line, std::move(entry));
    ++numMisses;
    ++tstats.accesses;
    ++tstats.misses;
    return LlcResult::kMiss;
}

void
Llc::installLine(Addr line, bool dirty, Cycle now)
{
    std::size_t base = setIndex(line) * cfg.ways;
    Line *victim = &lines[base];
    for (unsigned w = 0; w < cfg.ways; ++w) {
        Line &l = lines[base + w];
        if (!l.valid) {
            victim = &l;
            break;
        }
        if (l.lastUse < victim->lastUse)
            victim = &l;
    }
    if (victim->valid && victim->dirty) {
        if (!issueWriteback(victim->tag, now))
            wbRetry.push_back(victim->tag);
    }
    victim->tag = line;
    victim->valid = true;
    victim->dirty = dirty;
    victim->lastUse = ++useCounter;
}

bool
Llc::issueWriteback(Addr line, Cycle now)
{
    if (mem.queueFull(ReqType::kWrite, line * kLineBytes))
        return false;
    Request wb;
    wb.addr = line * kLineBytes;
    wb.type = ReqType::kWrite;
    wb.thread = kNoThread;      // writebacks are not attributable
    wb.arrival = now;
    bool ok = mem.submit(std::move(wb)) == SubmitResult::kAccepted;
    if (ok)
        ++numWritebacks;
    return ok;
}

void
Llc::tick(Cycle now)
{
    while (!wbRetry.empty()) {
        if (!issueWriteback(wbRetry.front(), now))
            break;
        wbRetry.pop_front();
    }
}

const ThreadLlcStats &
Llc::threadStats(ThreadId thread) const
{
    static const ThreadLlcStats empty;
    if (thread < 0 || static_cast<std::size_t>(thread) >= perThread.size())
        return empty;
    return perThread[static_cast<std::size_t>(thread)];
}

ThreadLlcStats &
Llc::threadStatsMutable(ThreadId thread)
{
    if (thread < 0) {
        static ThreadLlcStats scratch;
        return scratch;
    }
    auto i = static_cast<std::size_t>(thread);
    if (i >= perThread.size())
        perThread.resize(i + 1);
    return perThread[i];
}

} // namespace bh
