/**
 * @file
 * Tests for the post-paper mitigation zoo: ABACuS shared-counter
 * semantics, DAPPER's budgeted preventive-refresh drain, the shared
 * Misra-Gries table of Graphene, DAPPER and ABACuS (differential against
 * the copy-and-sort minimum scan it replaced), the BreakHammer throttler
 * composition (including the byte-identity of BreakHammer+Baseline with
 * plain Baseline), and the thread-quota admission gate's accounting (a
 * rejected submit must never leak an in-flight quota slot).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <unordered_map>
#include <vector>

#include "bench/bench_util.hh"
#include "common/ordered.hh"
#include "common/rng.hh"
#include "mem/controller.hh"
#include "mem/mem_system.hh"
#include "mitigations/abacus.hh"
#include "mitigations/breakhammer.hh"
#include "mitigations/dapper.hh"
#include "mitigations/factory.hh"
#include "mitigations/graphene.hh"
#include "mitigations/misra_gries.hh"
#include "sim/experiment.hh"
#include "workloads/attack_patterns.hh"

namespace bh
{
namespace
{

/** Records victim refreshes that mechanisms schedule. */
class RecordingController
{
  public:
    RecordingController()
        : timings(DramTimings::ddr4()),
          dev(DramOrg::paperConfig(), timings), nullMitig(),
          ctrl(dev, ControllerConfig{}, nullMitig, nullptr, nullptr)
    {
    }

    DramTimings timings;
    DramDevice dev;
    NullMitigation nullMitig;
    MemController ctrl;
};

MitigationSettings
tinySettings(std::uint32_t n_rh = 1024)
{
    MitigationSettings s;
    s.nRH = n_rh;
    s.blastRadius = 1;
    s.timings = DramTimings::ddr4();
    s.banks = 16;
    s.rowsPerBank = 65536;
    s.threads = 8;
    s.seed = 7;
    return s;
}

// --- ABACuS ------------------------------------------------------------

TEST(Abacus, SavSharesOneCounterAcrossBanks)
{
    RecordingController rc;
    Abacus ab(tinySettings());
    ab.setController(&rc.ctrl);
    // First activation in each of four banks only accumulates SAV bits.
    for (unsigned bank = 0; bank < 4; ++bank)
        ab.onActivate(bank, 500, 0, bank);
    EXPECT_EQ(ab.rac(500), 0u);
    EXPECT_EQ(ab.sav(500), 0xFull);
    // Re-activating a bank whose SAV bit is already set starts a new
    // round: RAC bumps, SAV collapses to that bank alone.
    ab.onActivate(2, 500, 0, 10);
    EXPECT_EQ(ab.rac(500), 1u);
    EXPECT_EQ(ab.sav(500), 1ull << 2);
}

TEST(Abacus, RacTracksMaxPerBankCount)
{
    RecordingController rc;
    Abacus ab(tinySettings());
    ab.setController(&rc.ctrl);
    // Hammering one bank alone is the worst case the RAC must track:
    // every activation after the first re-sets its own SAV bit.
    for (int i = 0; i < 10; ++i)
        ab.onActivate(0, 700, 0, i);
    EXPECT_EQ(ab.rac(700), 9u);
}

TEST(Abacus, TriggerRefreshesNeighborsInEveryBank)
{
    RecordingController rc;
    MitigationSettings s = tinySettings(8);     // thT = 8/2/2 = 2
    Abacus ab(s);
    ab.setController(&rc.ctrl);
    ASSERT_EQ(ab.threshold(), 2u);
    // RAC reaches 2 on the third same-bank activation.
    for (int i = 0; i < 3; ++i)
        ab.onActivate(0, 1000, 0, i);
    EXPECT_EQ(ab.triggerEvents(), 1u);
    // The shared counter cannot name the attacked bank, so the fan-out
    // covers all banks: 2 * blastRadius victims in each.
    EXPECT_EQ(ab.refreshesIssued(), 2ull * s.blastRadius * s.banks);
    EXPECT_GT(rc.ctrl.pendingVictimRefreshes(), 0u);
}

TEST(Abacus, TriggerRepeatsEveryThresholdMultiple)
{
    RecordingController rc;
    Abacus ab(tinySettings(8));
    ab.setController(&rc.ctrl);
    for (int i = 0; i < 9; ++i)     // RAC reaches 8 -> 4 multiples of 2
        ab.onActivate(0, 1000, 0, i);
    EXPECT_EQ(ab.triggerEvents(), 4u);
}

TEST(Abacus, WindowResetClearsTable)
{
    RecordingController rc;
    Abacus ab(tinySettings());
    ab.setController(&rc.ctrl);
    for (int i = 0; i < 5; ++i)
        ab.onActivate(0, 900, 0, i);
    EXPECT_GT(ab.rac(900), 0u);
    Cycle refw = DramTimings::ddr4().tREFW;
    EXPECT_EQ(ab.nextHousekeepingAt(0), refw);
    ab.tick(refw);
    EXPECT_EQ(ab.rac(900), 0u);
    EXPECT_EQ(ab.sav(900), 0u);
    // The reset boundary advances a full window.
    EXPECT_EQ(ab.nextHousekeepingAt(refw), 2 * refw);
}

TEST(Abacus, SpilloverDisplacesColdestRow)
{
    RecordingController rc;
    Abacus ab(tinySettings());
    ab.setController(&rc.ctrl);
    // Fill the shared table with distinct once-activated rows (RAC 0).
    for (unsigned i = 0; i < ab.tableSize(); ++i)
        ab.onActivate(0, 10000 + i, 0, i);
    EXPECT_EQ(ab.rac(10000), 0u);
    EXPECT_EQ(ab.sav(10000), 1ull);
    // A miss on the full table displaces the minimum-RAC entry with the
    // lowest row address (deterministic tie-break) and installs the new
    // row at spillover + 1.
    ab.onActivate(3, 99, 0, 777);
    EXPECT_EQ(ab.sav(10000), 0u);   // coldest (lowest) row displaced
    EXPECT_EQ(ab.rac(99), 2u);
    EXPECT_EQ(ab.sav(99), 1ull << 3);
}

// --- DAPPER ------------------------------------------------------------

TEST(Dapper, TriggersAreDeferredUntilDrainGrid)
{
    RecordingController rc;
    Dapper dp(tinySettings(8));     // thT = 8/2/4 = 1: every hit triggers
    dp.setController(&rc.ctrl);
    ASSERT_EQ(dp.threshold(), 1u);
    for (int i = 0; i < 4; ++i)
        dp.onActivate(0, 1000, 0, i);
    // Three hits after the insert -> three owed triggers, zero refreshes
    // issued yet: preventive work waits for the budget grid.
    EXPECT_EQ(dp.triggerEvents(), 3u);
    EXPECT_EQ(dp.pendingTriggers(), 3u);
    EXPECT_EQ(dp.refreshesIssued(), 0u);
    EXPECT_EQ(rc.ctrl.pendingVictimRefreshes(), 0u);
    // With a backlog, the next housekeeping boundary is the drain grid.
    EXPECT_EQ(dp.nextHousekeepingAt(0), dp.drainInterval());
    dp.tick(dp.drainInterval());
    EXPECT_EQ(dp.pendingTriggers(), 0u);
    EXPECT_EQ(dp.refreshesIssued(), 3u * 2u);   // 2 victims per trigger
    EXPECT_GT(rc.ctrl.pendingVictimRefreshes(), 0u);
}

TEST(Dapper, DrainBudgetIsBoundedPerInterval)
{
    RecordingController rc;
    MitigationSettings s = tinySettings(8);
    Dapper dp(s);
    dp.setController(&rc.ctrl);
    ASSERT_EQ(dp.drainBatch(), s.banks / 4);
    // Queue ten triggers across banks (insert + hits at thT = 1).
    for (unsigned bank = 0; bank < 10; ++bank) {
        dp.onActivate(bank, 2000, 0, bank);
        dp.onActivate(bank, 2000, 0, bank + 100);
    }
    ASSERT_EQ(dp.pendingTriggers(), 10u);
    // Each grid step serves at most one batch, regardless of backlog.
    dp.tick(dp.drainInterval());
    EXPECT_EQ(dp.pendingTriggers(), 10u - dp.drainBatch());
    dp.tick(2 * dp.drainInterval());
    EXPECT_EQ(dp.pendingTriggers(), 10u - 2u * dp.drainBatch());
    // Deferral was observed: later triggers found a backlog.
    EXPECT_GT(dp.deferredTriggers(), 0u);
}

TEST(Dapper, IdleGridCatchUpMatchesStepByStep)
{
    // Jumping the clock far ahead with an empty queue just catches the
    // grid up — the state a cycle-stepped run reaches is identical,
    // which is what lets the event-skipping runner bypass idle spans.
    RecordingController rc;
    Dapper dp(tinySettings(8));
    dp.setController(&rc.ctrl);
    dp.tick(10 * dp.drainInterval());
    dp.onActivate(0, 3000, 0, 0);
    dp.onActivate(0, 3000, 0, 1);
    ASSERT_EQ(dp.pendingTriggers(), 1u);
    // The next grid point after the jump is 11 intervals in.
    EXPECT_EQ(dp.nextHousekeepingAt(10 * dp.drainInterval()),
              11 * dp.drainInterval());
    dp.tick(11 * dp.drainInterval());
    EXPECT_EQ(dp.pendingTriggers(), 0u);
}

// --- Shared Misra-Gries table: differential ---------------------------

/**
 * Reference: the per-bank count table Graphene and DAPPER kept before
 * the shared table, with its copy-and-sort minimum scan. activate()
 * reports whether the activation triggers at threshold t.
 */
class ReferenceCountTable
{
  public:
    explicit ReferenceCountTable(unsigned entries) : numEntries(entries) {}

    bool
    activate(RowId row, std::uint32_t t)
    {
        auto it = counts.find(row);
        if (it != counts.end()) {
            ++it->second;
            return it->second % t == 0;
        }
        if (counts.size() < numEntries) {
            counts.emplace(row, 1);
            return false;
        }
        ++spillover;
        RowId min_row = 0;
        std::uint32_t min_count = 0;
        bool have_min = false;
        for (const auto &item : sortedItems(counts)) {
            if (!have_min || item.second < min_count) {
                min_row = item.first;
                min_count = item.second;
                have_min = true;
            }
        }
        if (have_min && spillover >= min_count) {
            ++displacements;
            counts.erase(min_row);
            counts.emplace(row, spillover + 1);
            spillover = min_count;
            std::uint32_t cnt = counts[row];
            return cnt >= t && cnt % t == 0;
        }
        return false;
    }

    void
    clear()
    {
        counts.clear();
        spillover = 0;
    }

    std::unordered_map<RowId, std::uint32_t> counts;
    std::uint32_t spillover = 0;
    std::uint64_t displacements = 0;
    unsigned numEntries;
};

/** Reference: ABACuS's rank-wide (RAC, SAV) table before the shared one. */
class ReferenceAbacusTable
{
  public:
    explicit ReferenceAbacusTable(unsigned entries) : numEntries(entries) {}

    struct Entry
    {
        std::uint32_t rac = 0;
        std::uint64_t sav = 0;
    };

    bool
    activate(unsigned bank, RowId row, std::uint32_t t)
    {
        std::uint64_t bit = 1ull << bank;
        auto it = table.find(row);
        if (it != table.end()) {
            Entry &e = it->second;
            if (e.sav & bit) {
                ++e.rac;
                e.sav = bit;
                return e.rac % t == 0;
            }
            e.sav |= bit;
            return false;
        }
        if (table.size() < numEntries) {
            Entry e;
            e.sav = bit;
            table.emplace(row, e);
            return false;
        }
        ++spillover;
        RowId min_row = 0;
        std::uint32_t min_rac = 0;
        bool have_min = false;
        for (RowId r : sortedMapKeys(table)) {
            std::uint32_t c = table.find(r)->second.rac;
            if (!have_min || c < min_rac) {
                min_row = r;
                min_rac = c;
                have_min = true;
            }
        }
        if (have_min && spillover >= min_rac) {
            ++displacements;
            table.erase(min_row);
            Entry e;
            e.rac = spillover + 1;
            e.sav = bit;
            spillover = min_rac;
            table.emplace(row, e);
            return e.rac >= t && e.rac % t == 0;
        }
        return false;
    }

    void
    clear()
    {
        table.clear();
        spillover = 0;
    }

    std::unordered_map<RowId, Entry> table;
    std::uint32_t spillover = 0;
    std::uint64_t displacements = 0;
    unsigned numEntries;
};

/** (row, count) pairs of a shared table, sorted by row. */
template <typename Payload>
std::vector<std::pair<RowId, std::uint32_t>>
rowCounts(const MisraGriesTable<Payload> &table)
{
    std::vector<std::pair<RowId, std::uint32_t>> out;
    for (const auto &[count, row] : table.ordered())
        out.emplace_back(row, count);
    std::sort(out.begin(), out.end());
    return out;
}

/**
 * Settings whose refresh window fits `window_acts` row cycles: tables
 * of a handful of entries and a window reset every few hundred ACTs.
 */
MitigationSettings
diffSettings(std::uint32_t n_rh, Cycle window_acts)
{
    MitigationSettings s = tinySettings(n_rh);
    s.timings.tREFW = window_acts * s.timings.tRC;
    return s;
}

/**
 * One seeded ACT stream: a few hot rows (heavy count ties) over a cold
 * tail three tables wide (churn past a full table), ACTs 0..39 cycles
 * apart so the window resets every ~200 ACTs.
 */
struct ActStream
{
    ActStream(std::uint64_t seed, unsigned table_size)
        : rng(seed), span(3 * table_size)
    {
    }

    /** Advance time and draw the next ACT's row (bank left to caller). */
    RowId
    next()
    {
        now += static_cast<Cycle>(rng.below(40));
        return 100 + static_cast<RowId>(rng.below(rng.chance(0.5) ? 4
                                                                  : span));
    }

    Rng rng;
    unsigned span;
    Cycle now = 0;
};

/**
 * Drive a per-bank count tracker (Graphene or DAPPER) and per-bank
 * reference tables through the same stream, comparing after every ACT
 * the trigger, the bank's table contents and its spillover.
 */
template <typename Mech, typename Triggers>
void
diffCountTracker(Mech &mech, Triggers triggers, const MitigationSettings &s,
                 std::uint64_t seed)
{
    RecordingController rc;
    mech.setController(&rc.ctrl);
    std::vector<ReferenceCountTable> ref(
        s.banks, ReferenceCountTable(mech.tableSize()));
    ActStream stream(seed, mech.tableSize());
    Cycle next_reset = s.timings.tREFW;
    std::uint64_t fired = 0, resets = 0;
    for (unsigned i = 0; i < 20000; ++i) {
        RowId row = stream.next();
        unsigned bank = static_cast<unsigned>(stream.rng.below(4));
        mech.tick(stream.now);
        if (stream.now >= next_reset) {
            for (auto &r : ref)
                r.clear();
            next_reset += s.timings.tREFW;
            ++resets;
        }
        std::uint64_t before = triggers(mech);
        mech.onActivate(bank, row, 0, stream.now);
        bool want = ref[bank].activate(row, mech.threshold());
        fired += want;
        ASSERT_EQ(triggers(mech) - before, want ? 1u : 0u) << "ACT " << i;
        ASSERT_EQ(rowCounts(mech.table(bank)), sortedItems(ref[bank].counts))
            << "ACT " << i;
        ASSERT_EQ(mech.table(bank).spillover(), ref[bank].spillover)
            << "ACT " << i;
    }
    // The stream really exercised displacement, triggers and resets.
    std::uint64_t displaced = 0;
    for (const auto &r : ref)
        displaced += r.displacements;
    EXPECT_GT(displaced, 100u);
    EXPECT_GT(fired, 100u);
    EXPECT_GT(resets, 10u);
}

TEST(MisraGriesDifferential, GrapheneThresholdOne)
{
    MitigationSettings s = diffSettings(4, 12);
    Graphene g(s);
    ASSERT_EQ(g.threshold(), 1u);
    // Two victims per trigger: the rows sit far from the bank edges.
    diffCountTracker(
        g, [](const Graphene &m) { return m.refreshesIssued() / 2; }, s,
        0x6e1);
}

TEST(MisraGriesDifferential, GrapheneThresholdFour)
{
    MitigationSettings s = diffSettings(16, 24);
    Graphene g(s);
    ASSERT_EQ(g.threshold(), 4u);
    ASSERT_EQ(g.tableSize(), 7u);
    diffCountTracker(
        g, [](const Graphene &m) { return m.refreshesIssued() / 2; }, s,
        0x6e4);
}

TEST(MisraGriesDifferential, Dapper)
{
    for (std::uint32_t n_rh : {8u, 16u}) {
        MitigationSettings s = diffSettings(n_rh, 16);
        Dapper dp(s);
        diffCountTracker(
            dp, [](const Dapper &m) { return m.triggerEvents(); }, s,
            0xda0 + n_rh);
    }
}

TEST(MisraGriesDifferential, AbacusMultiBankSav)
{
    MitigationSettings s = diffSettings(16, 24);
    RecordingController rc;
    Abacus ab(s);
    ab.setController(&rc.ctrl);
    ASSERT_EQ(ab.threshold(), 4u);
    ReferenceAbacusTable ref(ab.tableSize());
    ActStream stream(0xabac, ab.tableSize());
    Cycle next_reset = s.timings.tREFW;
    std::uint64_t fired = 0;
    for (unsigned i = 0; i < 20000; ++i) {
        RowId row = stream.next();
        // Half the ACTs revisit two banks (RAC rounds), half spread over
        // all sixteen (SAV accumulation).
        auto bank = static_cast<unsigned>(
            stream.rng.below(stream.rng.chance(0.5) ? 2 : s.banks));
        ab.tick(stream.now);
        if (stream.now >= next_reset) {
            ref.clear();
            next_reset += s.timings.tREFW;
        }
        std::uint64_t before = ab.triggerEvents();
        ab.onActivate(bank, row, 0, stream.now);
        bool want = ref.activate(bank, row, ab.threshold());
        fired += want;
        ASSERT_EQ(ab.triggerEvents() - before, want ? 1u : 0u)
            << "ACT " << i;
        std::vector<std::pair<RowId, std::uint32_t>> want_racs;
        for (RowId r : sortedMapKeys(ref.table)) {
            const auto &e = ref.table.find(r)->second;
            want_racs.emplace_back(r, e.rac);
            ASSERT_EQ(ab.sav(r), e.sav) << "ACT " << i << " row " << r;
        }
        ASSERT_EQ(rowCounts(ab.sharedTable()), want_racs) << "ACT " << i;
        ASSERT_EQ(ab.sharedTable().spillover(), ref.spillover)
            << "ACT " << i;
    }
    EXPECT_GT(ref.displacements, 100u);
    EXPECT_GT(fired, 50u);
}

// --- BreakHammer composition -------------------------------------------

TEST(BreakHammer, NamesAndForwardsBase)
{
    MitigationSettings s = tinySettings();
    auto mech = makeMitigation("BreakHammer+Graphene", s);
    auto *bkh = dynamic_cast<BreakHammer *>(mech.get());
    ASSERT_NE(bkh, nullptr);
    EXPECT_EQ(mech->name(), "BreakHammer+Graphene");
    EXPECT_EQ(bkh->baseMechanism().name(), "Graphene");
    // Observation-only before any blame: every thread unlimited.
    for (ThreadId t = 0; t < 8; ++t)
        EXPECT_EQ(mech->threadQuota(t), -1);
}

TEST(BreakHammer, BlamesThreadWhoseActivationsTrigger)
{
    RecordingController rc;
    MitigationSettings s = tinySettings(8);
    auto mech = makeMitigation("BreakHammer+Graphene", s);
    auto *bkh = dynamic_cast<BreakHammer *>(mech.get());
    ASSERT_NE(bkh, nullptr);
    mech->setController(&rc.ctrl);
    // Thread 2 hammers one row hard enough for Graphene to trigger
    // preventive refreshes from inside onActivate.
    for (int i = 0; i < 400; ++i)
        mech->onActivate(0, 4000, 2, i);
    EXPECT_GT(bkh->totalBlamed(), 0u);
    EXPECT_GT(bkh->score(2), 0.0);
    EXPECT_GT(bkh->blamedTriggers(2), 0u);
    // Only the hammering thread is throttled.
    EXPECT_LT(mech->threadQuota(2), 4);
    EXPECT_EQ(mech->threadQuota(0), -1);
    EXPECT_DOUBLE_EQ(bkh->score(0), 0.0);
}

TEST(BreakHammer, SaturatedScoreStarvesThread)
{
    RecordingController rc;
    MitigationSettings s = tinySettings(8);
    // Shrink the refresh window so the blame normalizer (half a bank's
    // worst-case trigger rate, ~W / 2T) is reachable in a unit test.
    s.timings.tREFW = s.timings.tRC * 256;
    auto mech = makeMitigation("BreakHammer+Graphene", s);
    auto *bkh = dynamic_cast<BreakHammer *>(mech.get());
    ASSERT_NE(bkh, nullptr);
    mech->setController(&rc.ctrl);
    // Hammer until blame saturates; the score caps near 2, and the
    // thread-quota ladder hits zero at score >= 1.
    for (int i = 0; i < 200000 && bkh->score(5) < 1.0; ++i)
        mech->onActivate(0, 5000, 5, i);
    ASSERT_GE(bkh->score(5), 1.0);
    EXPECT_EQ(mech->threadQuota(5), 0);
    EXPECT_LE(bkh->score(5), 2.5);  // saturating counters bound the score
}

TEST(BreakHammer, EpochSwapForgetsStaleBlame)
{
    RecordingController rc;
    MitigationSettings s = tinySettings(8);
    auto mech = makeMitigation("BreakHammer+Graphene", s);
    auto *bkh = dynamic_cast<BreakHammer *>(mech.get());
    ASSERT_NE(bkh, nullptr);
    mech->setController(&rc.ctrl);
    for (int i = 0; i < 400; ++i)
        mech->onActivate(0, 6000, 1, i);
    ASSERT_GT(bkh->score(1), 0.0);
    // Two epoch boundaries (a full tREFW) clear both counter sides for
    // a thread that stopped hammering: the suspect verdict expires.
    mech->tick(s.timings.tREFW);
    EXPECT_DOUBLE_EQ(bkh->score(1), 0.0);
    EXPECT_EQ(mech->threadQuota(1), -1);
}

TEST(BreakHammer, InertWrapperPublishesNoStats)
{
    MitigationSettings s = tinySettings();
    auto mech = makeMitigation("BreakHammer+Baseline", s);
    mech->syncStats();
    // Never-blamed wrapper over a stat-less base: the report bytes a
    // run emits must be indistinguishable from the base alone.
    EXPECT_TRUE(mech->stats.counters().empty());
    EXPECT_TRUE(mech->stats.scalars().empty());
}

// --- run-level identity and security behavior --------------------------

RunResult
runSecurity(const std::string &mechanism, const std::string &pattern)
{
    BenchContext ctx;
    ctx.scale = 0.1;
    ExperimentConfig cfg = securityConfig(ctx, mechanism, 1);
    return runExperiment(cfg, securityMix(attackPatternApp(pattern),
                                          "zoo-" + pattern));
}

TEST(ZooRuns, BreakHammerOverBaselineIsByteIdenticalToBaseline)
{
    RunResult base = runSecurity("Baseline", "double-sided");
    RunResult wrapped = runSecurity("BreakHammer+Baseline", "double-sided");
    // The wrapper never blames under a stat-less base that schedules no
    // preventive refreshes, so the whole simulation — timing, energy,
    // security verdict, and the serialized stats — is identical.
    ASSERT_EQ(wrapped.ipc.size(), base.ipc.size());
    for (std::size_t i = 0; i < base.ipc.size(); ++i)
        EXPECT_DOUBLE_EQ(wrapped.ipc[i], base.ipc[i]) << i;
    EXPECT_DOUBLE_EQ(wrapped.energyJ, base.energyJ);
    EXPECT_EQ(wrapped.bitFlips, base.bitFlips);
    EXPECT_EQ(wrapped.demandActs, base.demandActs);
    EXPECT_EQ(wrapped.blockedActs, base.blockedActs);
    EXPECT_EQ(wrapped.victimRefreshes, base.victimRefreshes);
    EXPECT_DOUBLE_EQ(wrapped.secMargin, base.secMargin);
    EXPECT_EQ(wrapped.secMaxWindowActs, base.secMaxWindowActs);
    EXPECT_EQ(wrapped.stats.dump(2), base.stats.dump(2));
}

TEST(ZooRuns, DapperBoundsRefreshBandwidthUnderPerformanceAttack)
{
    // bankpar-4 hammers a distinct multi-sided site in every bank at
    // once — the pattern shape that forces the most simultaneous
    // trigger events, i.e. a performance attack on the mitigation
    // itself. DAPPER must absorb it through the FIFO (deferrals), not
    // by unbounded preventive-refresh bursts.
    RunResult res = runSecurity("DAPPER", "bankpar-4");
    const Json *lane = res.stats.find("ch0");
    ASSERT_NE(lane, nullptr);
    const Json *mitig = lane->find("mitigation");
    ASSERT_NE(mitig, nullptr);
    const Json *counters = mitig->find("counters");
    ASSERT_NE(counters, nullptr);
    auto stat = [&](const char *key) {
        const Json *v = counters->find(key);
        return v == nullptr ? 0 : v->asInt();
    };
    EXPECT_GT(stat("dapper.triggers"), 0);
    // Served refreshes never exceed the owed fan-out (2 victims per
    // trigger at blastRadius 1): the budget defers, it never invents.
    EXPECT_LE(stat("dapper.victim_refreshes"), 2 * stat("dapper.triggers"));
    EXPECT_EQ(stat("dapper.victim_refreshes") +
                  2 * stat("dapper.pending_at_end"),
              2 * stat("dapper.triggers"));
    // The bank-parallel burst overruns the per-interval batch: real
    // deferral happened.
    EXPECT_GT(stat("dapper.deferred"), 0);
}

TEST(ZooRuns, AbacusRefreshesVictimsUnderAttack)
{
    RunResult res = runSecurity("ABACuS", "double-sided");
    EXPECT_GT(res.victimRefreshes, 0u);
    const Json *lane = res.stats.find("ch0");
    ASSERT_NE(lane, nullptr);
    const Json *mitig = lane->find("mitigation");
    ASSERT_NE(mitig, nullptr);
    const Json *counters = mitig->find("counters");
    ASSERT_NE(counters, nullptr);
    const Json *triggers = counters->find("abacus.triggers");
    ASSERT_NE(triggers, nullptr);
    EXPECT_GT(triggers->asInt(), 0);
}

// --- thread-quota admission gate ---------------------------------------

/** Stub with a scriptable channel-wide thread quota. */
class ThreadQuotaMitigation : public Mitigation
{
  public:
    std::string name() const override { return "ThreadQuotaStub"; }
    void onActivate(unsigned, RowId, ThreadId, Cycle) override {}

    int
    threadQuota(ThreadId thread) const override
    {
        auto it = quotas.find(thread);
        return it == quotas.end() ? -1 : it->second;
    }

    std::map<ThreadId, int> quotas;
};

class ThreadQuotaTest : public ::testing::Test
{
  protected:
    ThreadQuotaTest()
    {
        MemSystemConfig cfg;
        cfg.enableEnergy = false;
        cfg.enableHammerObserver = false;
        auto mit = std::make_unique<ThreadQuotaMitigation>();
        mitig = mit.get();
        mem = std::make_unique<MemSystem>(cfg, std::move(mit));
    }

    SubmitResult
    read(unsigned bank, RowId row, ThreadId thread)
    {
        DramCoord c;
        const DramOrg &org = mem->mapper().organization();
        c.rank = bank / org.banksPerRank();
        unsigned in_rank = bank % org.banksPerRank();
        c.bankGroup = in_rank / org.banksPerGroup;
        c.bank = in_rank % org.banksPerGroup;
        c.row = row;
        c.col = 0;
        Request req;
        req.addr = mem->mapper().encode(c);
        req.type = ReqType::kRead;
        req.thread = thread;
        req.arrival = now;
        return mem->submit(std::move(req));
    }

    void
    runFor(Cycle cycles)
    {
        for (Cycle end = now + cycles; now < end; ++now)
            mem->tick(now);
    }

    std::unique_ptr<MemSystem> mem;
    ThreadQuotaMitigation *mitig = nullptr;
    Cycle now = 0;
};

TEST_F(ThreadQuotaTest, RejectsAtChannelWideLimit)
{
    mitig->quotas[0] = 2;
    EXPECT_EQ(read(0, 100, 0), SubmitResult::kAccepted);
    // Unlike the per-bank quota(), the thread quota spans banks.
    EXPECT_EQ(read(1, 101, 0), SubmitResult::kAccepted);
    EXPECT_EQ(read(2, 102, 0), SubmitResult::kQuotaExceeded);
    // Other threads are unaffected.
    EXPECT_EQ(read(2, 103, 1), SubmitResult::kAccepted);
    EXPECT_EQ(mem->quotaRejects(), 1u);
}

TEST_F(ThreadQuotaTest, ZeroQuotaStarvesThread)
{
    mitig->quotas[3] = 0;
    EXPECT_EQ(read(0, 100, 3), SubmitResult::kQuotaExceeded);
    EXPECT_EQ(read(0, 100, 2), SubmitResult::kAccepted);
}

TEST_F(ThreadQuotaTest, ServiceReleasesSlots)
{
    mitig->quotas[0] = 2;
    EXPECT_EQ(read(0, 100, 0), SubmitResult::kAccepted);
    EXPECT_EQ(read(0, 101, 0), SubmitResult::kAccepted);
    EXPECT_EQ(read(0, 102, 0), SubmitResult::kQuotaExceeded);
    runFor(2000);
    EXPECT_EQ(mem->controller().inflightThread(0), 0);
    EXPECT_EQ(read(0, 103, 0), SubmitResult::kAccepted);
}

TEST_F(ThreadQuotaTest, RejectionsNeverLeakQuotaSlots)
{
    // Regression: in-flight accounting must move only on a successful
    // enqueue. A submit rejected *after* the quota check passes (queue
    // full) — or rejected by the quota itself — must leave the
    // thread's slot count untouched, or rejected requests would
    // permanently eat the quota and wedge the thread.
    // Quota rejections bump no in-flight count.
    mitig->quotas[7] = 0;
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(read(1, 6000 + i, 7), SubmitResult::kQuotaExceeded);
    EXPECT_EQ(mem->controller().inflightThread(7), 0);
    mitig->quotas[0] = 1000;    // throttled, but above queue capacity
    int accepted = 0;
    while (read(0, 1000 + accepted, 0) == SubmitResult::kAccepted)
        ++accepted;
    ASSERT_GT(accepted, 0);
    EXPECT_EQ(mem->controller().inflightThread(0), accepted);
    // Hammer the full queue with doomed submits: every one returns
    // kQueueFull (the pre-gate fires before the quota checks) and none
    // of them may bump the in-flight count.
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(read(0, 5000 + i, 0), SubmitResult::kQueueFull);
    EXPECT_EQ(mem->controller().inflightThread(0), accepted);
    // Draining the queue returns every slot: the thread is not wedged.
    runFor(200000);
    EXPECT_EQ(mem->controller().inflightThread(0), 0);
    EXPECT_EQ(read(0, 9000, 0), SubmitResult::kAccepted);
}

} // namespace
} // namespace bh
