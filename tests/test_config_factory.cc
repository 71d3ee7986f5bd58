/**
 * @file
 * Tests for the configuration surfaces: the mitigation factory, experiment
 * configuration derivation, the LPDDR4 timing variant (Section 3.1.3's
 * "tuning for different DRAM standards"), and configuration validation.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/hwcost.hh"
#include "blockhammer/blockhammer.hh"
#include "mitigations/abacus.hh"
#include "mitigations/breakhammer.hh"
#include "mitigations/dapper.hh"
#include "mitigations/factory.hh"
#include "mitigations/prohit.hh"
#include "sim/experiment.hh"

namespace bh
{
namespace
{

TEST(Factory, ConstructsEveryListedMechanism)
{
    MitigationSettings s;
    for (const auto &name : mitigationNames()) {
        auto mech = makeMitigation(name, s);
        ASSERT_NE(mech, nullptr) << name;
        EXPECT_FALSE(mech->name().empty()) << name;
    }
}

TEST(Factory, PaperMechanismsAreSevenInFigureOrder)
{
    const auto &mechs = paperMechanisms();
    ASSERT_EQ(mechs.size(), 7u);
    EXPECT_EQ(mechs.front(), "PARA");
    EXPECT_EQ(mechs.back(), "BlockHammer");
}

TEST(Factory, ObserveVariantIsObserveOnly)
{
    MitigationSettings s;
    auto mech = makeMitigation("BlockHammer-Observe", s);
    auto *bh = dynamic_cast<BlockHammer *>(mech.get());
    ASSERT_NE(bh, nullptr);
    EXPECT_TRUE(bh->config().observeOnly);

    auto full = makeMitigation("BlockHammer", s);
    auto *bh_full = dynamic_cast<BlockHammer *>(full.get());
    ASSERT_NE(bh_full, nullptr);
    EXPECT_FALSE(bh_full->config().observeOnly);
}

TEST(Factory, SettingsPropagateToBlockHammer)
{
    MitigationSettings s;
    s.nRH = 4096;
    s.threads = 4;
    s.seed = 99;
    auto mech = makeMitigation("BlockHammer", s);
    auto *bh = dynamic_cast<BlockHammer *>(mech.get());
    ASSERT_NE(bh, nullptr);
    EXPECT_EQ(bh->config().nRH, 4096u);
    EXPECT_EQ(bh->config().threads, 4u);
    EXPECT_EQ(bh->config().seed, 99u);
}

TEST(Factory, ZooMechanismsAppendAfterFrozenPaperSet)
{
    // The zoo list is the factory-derived source of truth for sweep
    // grids; its order is pinned because cell indices derive from it.
    const auto &zoo = zooMechanisms();
    ASSERT_EQ(zoo.size(), 3u);
    EXPECT_EQ(zoo[0], "ABACuS");
    EXPECT_EQ(zoo[1], "DAPPER");
    EXPECT_EQ(zoo[2], "BreakHammer+Graphene");
    // Every zoo name is constructible and listed in mitigationNames().
    const auto &all = mitigationNames();
    for (const auto &name : zoo)
        EXPECT_NE(std::find(all.begin(), all.end(), name), all.end())
            << name;
}

TEST(Factory, ConstructsZooWithExpectedTypes)
{
    MitigationSettings s;
    EXPECT_NE(dynamic_cast<Abacus *>(makeMitigation("ABACuS", s).get()),
              nullptr);
    EXPECT_NE(dynamic_cast<Dapper *>(makeMitigation("DAPPER", s).get()),
              nullptr);
    auto bkh = makeMitigation("BreakHammer+Graphene", s);
    auto *w = dynamic_cast<BreakHammer *>(bkh.get());
    ASSERT_NE(w, nullptr);
    EXPECT_EQ(w->baseMechanism().name(), "Graphene");
    // Composition recurses: any constructible mechanism can be a base.
    auto nested = makeMitigation("BreakHammer+ABACuS", s);
    auto *wn = dynamic_cast<BreakHammer *>(nested.get());
    ASSERT_NE(wn, nullptr);
    EXPECT_EQ(wn->baseMechanism().name(), "ABACuS");
}

TEST(FactoryDeath, UnknownNameIsFatal)
{
    MitigationSettings s;
    EXPECT_EXIT(makeMitigation("NoSuchMechanism", s),
                ::testing::ExitedWithCode(1), "unknown mitigation");
}

TEST(FactoryDeath, UnknownNameListsValidMechanisms)
{
    // The fatal must name the valid set: a typo'd config should tell
    // the user what would have worked.
    MitigationSettings s;
    EXPECT_EXIT(makeMitigation("NoSuchMechanism", s),
                ::testing::ExitedWithCode(1),
                "valid:.*Graphene.*BreakHammer");
}

TEST(FactoryDeath, UnknownBreakHammerBaseIsFatal)
{
    MitigationSettings s;
    EXPECT_EXIT(makeMitigation("BreakHammer+NoSuch", s),
                ::testing::ExitedWithCode(1), "unknown mitigation");
}

TEST(HwCostDeath, UnknownMechanismIsFatal)
{
    // A factory-registered mechanism missing from the cost model must
    // fail loudly, not produce a zero-cost Table 4 row.
    HwCostModel model;
    EXPECT_EXIT(model.costFor("NoSuchMechanism", 32768,
                              DramTimings::ddr4()),
                ::testing::ExitedWithCode(1), "no hardware cost model");
}

TEST(HwCost, ZooMechanismsHaveCostRows)
{
    HwCostModel model;
    auto t = DramTimings::ddr4();
    for (const auto &name : zooMechanisms()) {
        auto cost = model.costFor(name, 32768, t);
        ASSERT_TRUE(cost.has_value()) << name;
        EXPECT_GT(cost->areaMm2, 0.0) << name;
    }
    // The composition prices as base + throttler counters: strictly
    // more storage than the base alone, but only marginally.
    auto base = model.costFor("Graphene", 1024, t);
    auto composed = model.costFor("BreakHammer+Graphene", 1024, t);
    ASSERT_TRUE(base && composed);
    EXPECT_GT(composed->sramKiB, base->sramKiB);
    EXPECT_EQ(composed->camKiB, base->camKiB);
    // A composition over a fixed design point inherits its gap.
    EXPECT_FALSE(model.costFor("BreakHammer+PRoHIT", 1024, t).has_value());
}

TEST(NullMitigation, PermitsEverything)
{
    NullMitigation null;
    EXPECT_TRUE(null.isActSafe(0, 0, 0, 0));
    EXPECT_EQ(null.quota(0, 0), -1);
    EXPECT_EQ(null.name(), "Baseline");
}

TEST(ExperimentConfig, CompressedTimingsKeepPhysicalRefresh)
{
    ExperimentConfig cfg;
    cfg.refwMs = 0.5;
    DramTimings t = cfg.timings();
    DramTimings full = DramTimings::ddr4();
    // Window compressed; tREFI / tRFC stay physical (DESIGN.md).
    EXPECT_EQ(t.tREFW, nsToCycles(0.5e6));
    EXPECT_EQ(t.tREFI, full.tREFI);
    EXPECT_EQ(t.tRFC, full.tRFC);
    EXPECT_EQ(t.tRC, full.tRC);
}

TEST(ExperimentConfig, MitigationSettingsConsistent)
{
    ExperimentConfig cfg;
    cfg.nRH = 2048;
    cfg.threads = 4;
    MitigationSettings s = cfg.mitigationSettings();
    EXPECT_EQ(s.nRH, 2048u);
    EXPECT_EQ(s.threads, 4u);
    EXPECT_EQ(s.effectiveNRH(), 1024u);
    EXPECT_EQ(s.timings.tREFW, cfg.timings().tREFW);
}

TEST(ExperimentConfig, PaperScaleIsUncompressed)
{
    ExperimentConfig cfg = ExperimentConfig::paperScale();
    EXPECT_EQ(cfg.nRH, 32768u);
    EXPECT_EQ(cfg.timings().tREFW, DramTimings::ddr4().tREFW);
}

TEST(Lpddr4, HalvedWindowHalvesTdelay)
{
    // Section 3.1.3: "In LPDDR4, tREFW is halved, which allows a
    // reduction in tDelay".
    auto ddr4 = BlockHammerConfig::forThreshold(32768, DramTimings::ddr4());
    auto lp = BlockHammerConfig::forThreshold(32768, DramTimings::lpddr4());
    EXPECT_LT(lp.tDelay(), ddr4.tDelay());
    EXPECT_NEAR(static_cast<double>(lp.tDelay()),
                static_cast<double>(ddr4.tDelay()) / 2.0,
                static_cast<double>(ddr4.tDelay()) * 0.02);
    // And the history buffer shrinks with it.
    EXPECT_LT(lp.historyEntries(), ddr4.historyEntries());
}

TEST(ConfigDeath, OverlargeNblIsFatal)
{
    BlockHammerConfig cfg = BlockHammerConfig::forThreshold(
        32768, DramTimings::ddr4());
    cfg.nBL = cfg.nRHStar() + 1;    // no activation budget left
    EXPECT_EXIT(cfg.tDelay(), ::testing::ExitedWithCode(1), "invalid");
}

TEST(Config, BlastModelPresets)
{
    BlastModel ds = BlastModel::doubleSided();
    EXPECT_EQ(ds.radius, 1u);
    BlastModel wc = BlastModel::worstCase();
    EXPECT_EQ(wc.radius, 6u);
    EXPECT_DOUBLE_EQ(wc.impactBase, 0.5);
}

TEST(Config, ThrottlerMaxCoversWindowBudget)
{
    auto cfg = BlockHammerConfig::forThreshold(32768, DramTimings::ddr4());
    // Counter must be able to reach N_RH* x (tCBF / tREFW).
    EXPECT_EQ(cfg.throttlerCounterMax(), cfg.nRHStar());
}

TEST(MixSpec, AttackSlotReporting)
{
    MixSpec mix;
    mix.apps = {"444.namd", "429.mcf"};
    EXPECT_EQ(mix.attackSlot(), -1);
    EXPECT_FALSE(mix.hasAttack());
    mix.apps.push_back(kAttackAppName);
    EXPECT_EQ(mix.attackSlot(), 2);
}

TEST(ExperimentRun, ThreadCountMismatchIsFatal)
{
    ExperimentConfig cfg;
    cfg.threads = 4;
    MixSpec mix;
    mix.name = "short";
    mix.apps = {"444.namd"};
    EXPECT_EXIT(buildSystem(cfg, mix), ::testing::ExitedWithCode(1),
                "threads");
}

TEST(Prohit, PaperDefaultConstants)
{
    EXPECT_EQ(Prohit::kHotEntries, 4u);
    EXPECT_EQ(Prohit::kColdEntries, 4u);
    EXPECT_DOUBLE_EQ(Prohit::kInsertProb, 1.0 / 16.0);
}

TEST(Settings, EffectiveThresholdHalves)
{
    MitigationSettings s;
    s.nRH = 9999;
    EXPECT_EQ(s.effectiveNRH(), 4999u);
}

} // namespace
} // namespace bh
