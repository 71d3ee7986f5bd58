#include "mitigations/graphene.hh"

#include <algorithm>

#include "mem/controller.hh"

namespace bh
{

Graphene::Graphene(const MitigationSettings &settings)
    : cfg(settings),
      // T: refresh the neighbors every T activations of a tracked row;
      // half the effective budget keeps double-sided disturbance below
      // N_RH.
      thT(std::max<std::uint32_t>(1, settings.effectiveNRH() / 2)),
      tables(settings.banks,
             MisraGriesTable<>(misraGriesCapacity(settings.timings, thT),
                               1)),
      nextReset(settings.timings.tREFW)
{
}

void
Graphene::refreshNeighbors(unsigned bank, RowId row, Cycle now)
{
    if (TraceSink::on()) {
        TraceSink::instant("mitig", "graphene_refresh", tmeta, now,
                           {{"bank", static_cast<std::int64_t>(bank)},
                            {"row", static_cast<std::int64_t>(row)}});
    }
    for (unsigned k = 1; k <= cfg.blastRadius; ++k) {
        for (int dir : {-1, 1}) {
            std::int64_t victim = static_cast<std::int64_t>(row) +
                dir * static_cast<int>(k);
            if (victim < 0 ||
                victim >= static_cast<std::int64_t>(cfg.rowsPerBank))
                continue;
            controller->scheduleVictimRefresh(bank,
                                              static_cast<RowId>(victim));
            ++numRefreshes;
        }
    }
}

void
Graphene::onActivate(unsigned bank, RowId row, ThreadId, Cycle now)
{
    std::uint32_t count = tables[bank].activate(row);
    if (count != 0 && count % thT == 0)
        refreshNeighbors(bank, row, now);
}

void
Graphene::tick(Cycle now)
{
    if (now >= nextReset) {
        for (auto &table : tables)
            table.clear();
        nextReset += cfg.timings.tREFW;
    }
}

} // namespace bh
