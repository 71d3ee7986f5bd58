#include "analysis/rowhammer_observer.hh"

#include <algorithm>

#include "common/log.hh"

namespace bh
{

namespace
{

/** Expired FIFO slots are compacted away once there are this many and
 *  they outnumber the live ones: amortized O(1) per ACT. */
constexpr std::size_t kCompactAt = 4096;

} // namespace

RowHammerObserver::RowHammerObserver(const DramOrg &org,
                                     const ObserverConfig &config)
    : cfg(config), rows(org.rowsPerBank), banks(org.banksPerChannel())
{
    if (cfg.window && cfg.windowCycles <= 0)
        fatal("RowHammerObserver: windowCycles must be positive");
    if (cfg.window && cfg.hammer.nRH == 0)
        fatal("RowHammerObserver: nRH must be positive");
    std::size_t n = static_cast<std::size_t>(banks) * rows;
    sinceRefresh.assign(n, 0);
    if (cfg.failureModel) {
        disturbance.assign(n, 0.0);
        flipped.assign(n, false);
        impact.resize(cfg.hammer.blastRadius + 1, 0.0);
        for (unsigned k = 1; k <= cfg.hammer.blastRadius; ++k) {
            impact[k] = 1.0;
            for (unsigned i = 1; i < k; ++i)
                impact[k] *= cfg.hammer.blastImpactBase;
        }
    }
}

void
RowHammerObserver::onActivate(unsigned bank, RowId row, Cycle now)
{
    ++acts;
    std::uint32_t since = ++sinceRefresh[index(bank, row)];
    maxSinceRefresh = std::max<std::uint64_t>(maxSinceRefresh, since);
    if (cfg.failureModel)
        disturb(bank, row, now);
    if (cfg.window)
        countInWindow(bank, row, now);
}

void
RowHammerObserver::disturb(unsigned bank, RowId row, Cycle now)
{
    std::size_t base = index(bank, 0);
    for (unsigned k = 1; k <= cfg.hammer.blastRadius; ++k) {
        for (int dir : {-1, 1}) {
            std::int64_t victim =
                static_cast<std::int64_t>(row) + dir * static_cast<int>(k);
            if (victim < 0 || victim >= static_cast<std::int64_t>(rows))
                continue;
            std::size_t vi = base + static_cast<std::size_t>(victim);
            disturbance[vi] += impact[k];
            if (!flipped[vi] && disturbance[vi] >= cfg.hammer.nRH) {
                flipped[vi] = true;
                flips.push_back(
                    BitFlipEvent{bank, static_cast<RowId>(victim), now});
            }
        }
    }
}

void
RowHammerObserver::countInWindow(unsigned bank, RowId row, Cycle now)
{
    auto &slot = *windowRows.try_emplace(index(bank, row)).first;
    ++slot.second.count;
    fifo.push_back(WindowAct{now, &slot});
    // The new ACT keeps `slot` alive through the expiry.
    expire(now);
    WindowRow &state = slot.second;
    std::uint64_t count = state.count;
    if (count > peakState.acts)
        peakState = OraclePeak{count, bank, row, now};
    if (count >= cfg.hammer.nRH) {
        if (firstViolation == kNoEventCycle)
            firstViolation = now;
        if (!state.violated) {
            state.violated = true;
            violated.insert(slot.first);
        }
    }
}

void
RowHammerObserver::expire(Cycle now)
{
    // The window is (now - tREFW, now]: an activation exactly tREFW ago
    // has left the window of an activation happening now.
    Cycle horizon = now - cfg.windowCycles;
    while (fifoHead < fifo.size() && fifo[fifoHead].cycle <= horizon) {
        WindowRows::value_type *slot = fifo[fifoHead++].row;
        if (--slot->second.count == 0)
            windowRows.erase(slot->first);
    }
    if (fifoHead >= kCompactAt && 2 * fifoHead >= fifo.size()) {
        fifo.erase(fifo.begin(),
                   fifo.begin() + static_cast<std::ptrdiff_t>(fifoHead));
        fifoHead = 0;
    }
}

void
RowHammerObserver::onRowRefresh(unsigned bank, RowId row)
{
    // The sliding window is left intact: refreshing a row restores its
    // victims' charge but does not erase the ACTs it already issued.
    clearRows(index(bank, row), 1);
}

void
RowHammerObserver::onAutoRefresh(RowId first_row, unsigned num_rows)
{
    // Rows first_row, first_row + 1, ... modulo the bank's row count:
    // at most two contiguous segments per bank.
    std::size_t first = first_row % rows;
    std::size_t count = std::min<std::size_t>(num_rows, rows);
    std::size_t head = std::min(count, rows - first);
    for (unsigned b = 0; b < banks; ++b) {
        clearRows(index(b, 0) + first, head);
        clearRows(index(b, 0), count - head);
    }
}

void
RowHammerObserver::clearRows(std::size_t first, std::size_t count)
{
    auto from = static_cast<std::ptrdiff_t>(first);
    auto to = static_cast<std::ptrdiff_t>(first + count);
    std::fill(sinceRefresh.begin() + from, sinceRefresh.begin() + to, 0);
    if (cfg.failureModel) {
        std::fill(disturbance.begin() + from, disturbance.begin() + to, 0.0);
        std::fill(flipped.begin() + from, flipped.begin() + to, false);
    }
}

std::uint32_t
RowHammerObserver::currentWindowActs(unsigned bank, RowId row, Cycle now)
{
    expire(now);
    auto it = windowRows.find(index(bank, row));
    return it == windowRows.end() ? 0 : it->second.count;
}

} // namespace bh
