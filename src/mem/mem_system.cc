#include "mem/mem_system.hh"

#include <algorithm>

#include "common/log.hh"

namespace bh
{

MemSystem::MemSystem(const MemSystemConfig &config,
                     std::vector<std::unique_ptr<Mitigation>> mitigations)
    : cfg(config)
{
    cfg.org.validated();
    if (mitigations.size() != cfg.org.channels)
        fatal("MemSystem: %zu mitigation instance(s) for %u channel(s) "
              "(the paper instantiates one per channel)",
              mitigations.size(), cfg.org.channels);
    map = std::make_unique<AddressMapper>(cfg.org, cfg.scheme);

    // Each lane's device/observer spans one channel's banks: geometry is
    // the per-channel organization.
    DramOrg lane_org = cfg.org;
    lane_org.channels = 1;

    lanes.resize(cfg.org.channels);
    bool multi = lanes.size() > 1;
    for (unsigned ch = 0; ch < lanes.size(); ++ch) {
        Lane &lane = lanes[ch];
        lane.dram = std::make_unique<DramDevice>(lane_org, cfg.timings);
        if (cfg.enableEnergy)
            lane.energy = std::make_unique<DramEnergyModel>(cfg.timings);
        if (cfg.enableHammerObserver || cfg.enableSecurityOracle) {
            ObserverConfig obs_cfg;
            obs_cfg.hammer = cfg.hammer;
            obs_cfg.failureModel = cfg.enableHammerObserver;
            obs_cfg.window = cfg.enableSecurityOracle;
            obs_cfg.windowCycles = cfg.timings.tREFW;
            lane.observer = std::make_unique<RowHammerObserver>(lane_org,
                                                                obs_cfg);
        }
        lane.mitig = std::move(mitigations[ch]);
        lane.ctrl = std::make_unique<MemController>(
            *lane.dram, cfg.ctrl, *lane.mitig, lane.observer.get(),
            lane.energy.get());
        // Multi-channel lanes must not touch shared core/LLC state from
        // inside a tick; completions are buffered and delivered by the
        // driver at cycle `done`. Single-channel keeps the legacy inline
        // invocation bit-for-bit.
        if (multi)
            lane.ctrl->setCompletionSink(&lane.completions);
    }
}

namespace
{

std::vector<std::unique_ptr<Mitigation>>
singleton(std::unique_ptr<Mitigation> mitigation)
{
    std::vector<std::unique_ptr<Mitigation>> v;
    v.push_back(std::move(mitigation));
    return v;
}

} // namespace

MemSystem::MemSystem(const MemSystemConfig &config,
                     std::unique_ptr<Mitigation> mitigation)
    : MemSystem(config, singleton(std::move(mitigation)))
{
    // A multi-channel config fatals in the delegated constructor: one
    // mitigation instance cannot serve N channels.
}

bool
MemSystem::queueFull(ReqType type, Addr addr) const
{
    const Lane &lane = lanes[map->channelOf(addr)];
    return type == ReqType::kRead ? lane.ctrl->readQueueFull()
                                  : lane.ctrl->writeQueueFull();
}

bool
MemSystem::queueFull(ReqType type) const
{
    const Lane &lane = soleLane();
    return type == ReqType::kRead ? lane.ctrl->readQueueFull()
                                  : lane.ctrl->writeQueueFull();
}

SubmitResult
MemSystem::submit(Request req)
{
    req.coord = map->decode(req.addr);
    req.flatBank = req.coord.flatBank(cfg.org);
    Lane &lane = lanes[req.coord.channel];

    // Cheap pre-gate: a full target queue rejects regardless of quota
    // state, and stalled cores re-submit every cycle.
    bool full = req.type == ReqType::kRead ? lane.ctrl->readQueueFull()
                                           : lane.ctrl->writeQueueFull();
    if (full) {
        lane.ctrl->noteQueueFullReject();
        if (TraceSink::on()) {
            TraceSink::instant(
                "queue", "queue_full", lane.ctrl->traceMeta(),
                req.arrival,
                {{"thread", static_cast<std::int64_t>(req.thread)},
                 {"read",
                  static_cast<std::int64_t>(
                      req.type == ReqType::kRead ? 1 : 0)}});
        }
        return SubmitResult::kQueueFull;
    }

    unsigned fb = req.flatBank;

    // AttackThrottler quota: reject new reads for <thread, bank> pairs
    // whose in-flight count has reached the lane mechanism's quota.
    if (req.type == ReqType::kRead && req.thread >= 0) {
        int q = lane.mitig->quota(req.thread, fb);
        if (q >= 0 && lane.ctrl->inflight(req.thread, fb) >= q) {
            ++numQuotaRejects;
            if (TraceSink::on()) {
                TraceSink::instant(
                    "queue", "quota_reject", lane.ctrl->traceMeta(),
                    req.arrival,
                    {{"thread", static_cast<std::int64_t>(req.thread)},
                     {"bank", static_cast<std::int64_t>(fb)},
                     {"quota", static_cast<std::int64_t>(q)}});
            }
            return SubmitResult::kQuotaExceeded;
        }
        // BreakHammer-style whole-thread quota: a suspect thread is
        // capped on its channel-wide in-flight reads regardless of the
        // bank it targets. Checked at the same gate as the per-bank
        // quota; in-flight accounting only moves inside a successful
        // enqueue (and back at service), so a rejection here — or a
        // queue-full rejection above — can never leak a quota slot.
        int tq = lane.mitig->threadQuota(req.thread);
        if (tq >= 0 && lane.ctrl->inflightThread(req.thread) >= tq) {
            ++numQuotaRejects;
            if (TraceSink::on()) {
                TraceSink::instant(
                    "queue", "thread_quota_reject", lane.ctrl->traceMeta(),
                    req.arrival,
                    {{"thread", static_cast<std::int64_t>(req.thread)},
                     {"quota", static_cast<std::int64_t>(tq)}});
            }
            return SubmitResult::kQuotaExceeded;
        }
    }
    if (!lane.ctrl->enqueue(std::move(req)))
        return SubmitResult::kQueueFull;
    return SubmitResult::kAccepted;
}

void
MemSystem::tick(Cycle now)
{
    for (auto &lane : lanes)
        lane.ctrl->tick(now);
    if (lanes.size() > 1)
        flushCompletions();
}

double
MemSystem::totalEnergy(Cycle now)
{
    double total = 0.0;
    for (auto &lane : lanes)
        if (lane.energy)
            total += lane.energy->totalEnergy(now);
    return total;
}

std::uint64_t
MemSystem::activityStamp() const
{
    std::uint64_t s = 0;
    for (const auto &lane : lanes)
        s += lane.ctrl->activityStamp();
    return s;
}

bool
MemSystem::allIdleSinceLastTick() const
{
    for (const auto &lane : lanes)
        if (!lane.ctrl->idleSinceLastTick())
            return false;
    return true;
}

Cycle
MemSystem::nextEventAt(Cycle now)
{
    Cycle best = kNoEventCycle;
    for (auto &lane : lanes)
        best = std::min(best, lane.ctrl->nextEventAt(now));
    return best;
}

void
MemSystem::noteSkippedTicks(std::uint64_t n)
{
    for (auto &lane : lanes)
        lane.ctrl->noteSkippedTicks(n);
}

void
MemSystem::flushCompletions()
{
    for (unsigned ch = 0; ch < lanes.size(); ++ch) {
        for (auto &dc : lanes[ch].completions) {
            pendingDeliveries.push(PendingDelivery{
                dc.done, ch, dc.seq,
                std::make_shared<std::function<void(Cycle)>>(
                    std::move(dc.fn))});
        }
        lanes[ch].completions.clear();
    }
}

void
MemSystem::deliverCompletionsDue(Cycle now)
{
    while (!pendingDeliveries.empty() &&
           pendingDeliveries.top().done <= now) {
        PendingDelivery d = pendingDeliveries.top();
        pendingDeliveries.pop();
        // The callback may submit new requests (LLC writebacks); lanes
        // only observe them at their next tick, regardless of execution
        // strategy, so delivery order fully determines the outcome.
        (*d.fn)(d.done);
    }
}

Cycle
MemSystem::nextCompletionAt() const
{
    return pendingDeliveries.empty() ? kNoEventCycle
                                     : pendingDeliveries.top().done;
}

Cycle
MemSystem::minCompletionLatency() const
{
    return std::min(cfg.timings.tCL, cfg.timings.tCWL) + cfg.timings.tBL;
}

} // namespace bh
