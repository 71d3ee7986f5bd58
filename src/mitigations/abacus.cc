#include "mitigations/abacus.hh"

#include <algorithm>

#include "common/log.hh"
#include "mem/controller.hh"

namespace bh
{

Abacus::Abacus(const MitigationSettings &settings)
    : cfg(settings),
      // Same trigger ladder as Graphene: neighbors refresh every T
      // activations of a tracked row, T = half the effective budget.
      thT(std::max<std::uint32_t>(1, settings.effectiveNRH() / 2)),
      // The RAC tracks the maximum per-bank activation count of a row
      // address, so one bank's window budget W bounds any RAC; the
      // shared table needs only ceil(W / T) + 1 entries for the whole
      // rank — ABACuS's headline saving over per-bank trackers. A new
      // row enters at RAC 0: its first activation only sets its SAV bit.
      table(misraGriesCapacity(settings.timings, thT), 0),
      nextReset(settings.timings.tREFW)
{
    if (cfg.banks > 64)
        fatal("ABACuS SAV models at most 64 banks (%u configured)",
              cfg.banks);
}

std::uint32_t
Abacus::rac(RowId row) const
{
    const auto *e = table.find(row);
    return e ? e->count() : 0;
}

std::uint64_t
Abacus::sav(RowId row) const
{
    const auto *e = table.find(row);
    return e ? e->payload : 0;
}

void
Abacus::refreshNeighborsAllBanks(RowId row, Cycle now)
{
    ++numTriggers;
    if (TraceSink::on()) {
        TraceSink::instant("mitig", "abacus_refresh", tmeta, now,
                           {{"row", static_cast<std::int64_t>(row)}});
    }
    // The shared counter cannot attribute the activations to one bank,
    // so every bank's neighbors are refreshed (the counter's saving is
    // paid back in refresh fan-out, cheap because triggers are rare).
    for (unsigned bank = 0; bank < cfg.banks; ++bank) {
        for (unsigned k = 1; k <= cfg.blastRadius; ++k) {
            for (int dir : {-1, 1}) {
                std::int64_t victim = static_cast<std::int64_t>(row) +
                    dir * static_cast<int>(k);
                if (victim < 0 ||
                    victim >= static_cast<std::int64_t>(cfg.rowsPerBank))
                    continue;
                controller->scheduleVictimRefresh(
                    bank, static_cast<RowId>(victim));
                ++numRefreshes;
            }
        }
    }
}

void
Abacus::onActivate(unsigned bank, RowId row, ThreadId, Cycle now)
{
    std::uint64_t bit = 1ull << bank;
    if (auto *e = table.find(row)) {
        if (e->payload & bit) {
            // The sibling already activated since the last RAC bump:
            // a new per-bank activation round starts at this address.
            e->payload = bit;
            if (table.increment(*e) % thT == 0)
                refreshNeighborsAllBanks(row, now);
        } else {
            e->payload |= bit;
        }
        return;
    }
    auto admitted = table.admit(row);
    if (!admitted.entry)
        return;
    admitted.entry->payload = bit;
    if (admitted.displaced && admitted.entry->count() % thT == 0)
        refreshNeighborsAllBanks(row, now);
}

void
Abacus::tick(Cycle now)
{
    if (now >= nextReset) {
        table.clear();
        nextReset += cfg.timings.tREFW;
    }
}

void
Abacus::syncStats()
{
    stats.inc("abacus.triggers", numTriggers);
    stats.inc("abacus.victim_refreshes", numRefreshes);
}

} // namespace bh
