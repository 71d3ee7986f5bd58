/**
 * @file
 * Event-skipping equivalence and large-organization regression tests.
 *
 * Event skipping must be bit-compatible with cycle-by-cycle simulation:
 * every RunResult field of a skipping run equals the reference run, and
 * SkipMode::kVerify (cycle-by-cycle execution that asserts every skip
 * claim) must complete without tripping. Sleeping cores get their own
 * System-level cases: per-core counters must agree across all three
 * modes under MLP-, quota- and LLC-MSHR-bound stalls. The scheduler must
 * also handle organizations with more than 64 flat banks, which used to
 * hit a stack-array panic.
 */

#include <gtest/gtest.h>

#include <array>

#include "sim/experiment.hh"

namespace bh
{
namespace
{

ExperimentConfig
shortConfig(const std::string &mechanism)
{
    ExperimentConfig cfg;
    cfg.mechanism = mechanism;
    cfg.nRH = 512;
    cfg.refwMs = 0.25;
    cfg.warmupCycles = 60'000;
    cfg.runCycles = 160'000;
    cfg.threads = 4;
    cfg.attack.numBanks = 8;
    return cfg;
}

MixSpec
attackMix()
{
    MixSpec mix;
    mix.name = "attack";
    mix.apps = {kAttackAppName, "429.mcf", "450.soplex", "462.libquantum"};
    return mix;
}

MixSpec
benignMix()
{
    MixSpec mix;
    mix.name = "benign";
    mix.apps = {"429.mcf", "462.libquantum", "444.namd", "473.astar"};
    return mix;
}

void
expectEqualResults(const RunResult &a, const RunResult &b)
{
    ASSERT_EQ(a.ipc.size(), b.ipc.size());
    for (std::size_t i = 0; i < a.ipc.size(); ++i)
        EXPECT_DOUBLE_EQ(a.ipc[i], b.ipc[i]) << "thread " << i;
    EXPECT_DOUBLE_EQ(a.energyJ, b.energyJ);
    EXPECT_EQ(a.bitFlips, b.bitFlips);
    EXPECT_EQ(a.maxRowActs, b.maxRowActs);
    EXPECT_EQ(a.demandActs, b.demandActs);
    EXPECT_EQ(a.blockedActs, b.blockedActs);
    EXPECT_EQ(a.victimRefreshes, b.victimRefreshes);
    EXPECT_EQ(a.rowHits, b.rowHits);
    EXPECT_EQ(a.rowMisses, b.rowMisses);
    EXPECT_EQ(a.rowConflicts, b.rowConflicts);
    EXPECT_EQ(a.stats.dump(), b.stats.dump());
}

void
expectSkipEquivalence(const std::string &mechanism, const MixSpec &mix)
{
    ExperimentConfig ref = shortConfig(mechanism);
    ref.skip = SkipMode::kCycleByCycle;
    ExperimentConfig fast = shortConfig(mechanism);
    fast.skip = SkipMode::kEventSkip;
    RunResult a = runExperiment(ref, mix);
    RunResult b = runExperiment(fast, mix);
    expectEqualResults(a, b);
}

TEST(EventSkip, BitCompatibleOnAttackBlockHammer)
{
    expectSkipEquivalence("BlockHammer", attackMix());
}

TEST(EventSkip, BitCompatibleOnAttackBaseline)
{
    expectSkipEquivalence("Baseline", attackMix());
}

TEST(EventSkip, BitCompatibleOnBenignGraphene)
{
    expectSkipEquivalence("Graphene", benignMix());
}

TEST(EventSkip, BitCompatibleOnAttackPara)
{
    expectSkipEquivalence("PARA", attackMix());
}

TEST(EventSkip, VerifyModeAssertsEveryClaim)
{
    // kVerify panics (aborting the test) on any wrong skip claim.
    ExperimentConfig cfg = shortConfig("BlockHammer");
    cfg.skip = SkipMode::kVerify;
    RunResult res = runExperiment(cfg, attackMix());
    EXPECT_GT(res.demandActs, 0u);
}

TEST(EventSkip, ActuallySkipsOnThrottledAttack)
{
    ExperimentConfig cfg = shortConfig("BlockHammer");
    auto system = buildSystem(cfg, attackMix());
    system->run(cfg.warmupCycles + cfg.runCycles);
    EXPECT_GT(system->skippedCycles(), 0u);
}

/** Endless line-strided stream of reads (or bypass reads) per core. */
class StreamTrace : public TraceSource
{
  public:
    StreamTrace(Addr base, std::uint32_t bubbles, bool bypass)
        : base(base), bubbles(bubbles), bypass(bypass)
    {
    }

    bool
    next(TraceEntry &entry) override
    {
        entry = TraceEntry{bubbles, true, false, bypass,
                           base + (i++) * kLineBytes};
        return true;
    }

    void reset() override { i = 0; }

  private:
    Addr base;
    std::uint32_t bubbles;
    bool bypass;
    std::uint64_t i = 0;
};

/** Caps every thread at `limit` in-flight reads per bank. */
class FixedQuota : public Mitigation
{
  public:
    explicit FixedQuota(int limit) : limit(limit) {}
    std::string name() const override { return "FixedQuota"; }
    int quota(ThreadId, unsigned) const override { return limit; }

  private:
    int limit;
};

struct CoreCounts
{
    std::uint64_t retired = 0;
    std::uint64_t memOps = 0;
    std::uint64_t stalls = 0;
};

/**
 * Run `cfg` with streaming cores in each SkipMode and return per-core
 * counters (off, on, verify). run() is called twice so resuming a run
 * with sleeping cores is covered too.
 */
std::array<std::vector<CoreCounts>, 3>
streamCountsPerMode(SystemConfig cfg, int quota, bool bypass,
                    Cycle cycles)
{
    std::array<std::vector<CoreCounts>, 3> out;
    const SkipMode modes[] = {SkipMode::kCycleByCycle, SkipMode::kEventSkip,
                              SkipMode::kVerify};
    for (int m = 0; m < 3; ++m) {
        cfg.skip = modes[m];
        System system(cfg, [quota](unsigned) -> std::unique_ptr<Mitigation> {
            if (quota < 0)
                return std::make_unique<NullMitigation>();
            return std::make_unique<FixedQuota>(quota);
        });
        for (unsigned t = 0; t < cfg.threads; ++t)
            system.setTrace(t, std::make_unique<StreamTrace>(
                                   (Addr{t} + 1) << 28, 3, bypass));
        system.run(cycles / 2);
        system.run(cycles - cycles / 2);
        for (unsigned t = 0; t < cfg.threads; ++t) {
            const Core &core = system.core(t);
            out[m].push_back(
                CoreCounts{core.retired(), core.memOps(), core.stallCycles()});
        }
    }
    return out;
}

void
expectCountsAgree(const std::array<std::vector<CoreCounts>, 3> &counts)
{
    const char *names[] = {"skip on", "verify"};
    for (int m = 1; m < 3; ++m) {
        ASSERT_EQ(counts[0].size(), counts[m].size());
        for (std::size_t t = 0; t < counts[0].size(); ++t) {
            EXPECT_EQ(counts[0][t].retired, counts[m][t].retired)
                << names[m - 1] << " core " << t;
            EXPECT_EQ(counts[0][t].memOps, counts[m][t].memOps)
                << names[m - 1] << " core " << t;
            EXPECT_EQ(counts[0][t].stalls, counts[m][t].stalls)
                << names[m - 1] << " core " << t;
        }
    }
    std::uint64_t stalls = 0;
    for (const CoreCounts &c : counts[0])
        stalls += c.stalls;
    EXPECT_GT(stalls, 0u) << "scenario never stalls a core";
}

SystemConfig
streamConfig(unsigned channels)
{
    SystemConfig cfg;
    cfg.threads = 4;
    cfg.mem.org = DramOrg::paperConfig(channels);
    cfg.mem.enableHammerObserver = false;
    return cfg;
}

TEST(SleepingCores, MlpBoundStallsAgreeAcrossModes)
{
    for (unsigned channels : {1u, 4u}) {
        SystemConfig cfg = streamConfig(channels);
        cfg.core.maxOutstandingMem = 2;
        SCOPED_TRACE(channels);
        expectCountsAgree(streamCountsPerMode(cfg, -1, false, 40'000));
    }
}

TEST(SleepingCores, QuotaBoundStallsAgreeAcrossModes)
{
    for (unsigned channels : {1u, 4u}) {
        SystemConfig cfg = streamConfig(channels);
        SCOPED_TRACE(channels);
        expectCountsAgree(streamCountsPerMode(cfg, 1, true, 40'000));
    }
}

TEST(SleepingCores, MshrBoundStallsWakeOnAnyFill)
{
    // Four streaming cores share three LLC MSHRs: a rejected core can
    // retry once any core's fill frees an MSHR, not only at its own
    // completions. Waking on own completions alone, one channel, retired
    // 3/3123/3027/2979 instructions instead of 3/6971/7/583.
    for (unsigned channels : {1u, 4u}) {
        SystemConfig cfg = streamConfig(channels);
        cfg.llc.mshrs = 3;
        SCOPED_TRACE(channels);
        expectCountsAgree(streamCountsPerMode(cfg, -1, false, 40'000));
    }
}

TEST(SleepingCores, SetTraceAfterRunIsFatal)
{
    SystemConfig cfg = streamConfig(1);
    cfg.threads = 1;
    System system(cfg, std::make_unique<NullMitigation>());
    system.setTrace(0, std::make_unique<StreamTrace>(0, 3, false));
    system.run(100);
    EXPECT_EXIT(system.setTrace(
                    0, std::make_unique<StreamTrace>(0, 3, false)),
                ::testing::ExitedWithCode(1), "after run");
}

TEST(LargeOrg, EightRankDdr4RunsWithoutPanic)
{
    // 8 ranks x 16 banks = 128 flat banks: over the old kMaxBanks=64
    // stack-array limit that panicked. The scheduler now sizes its state
    // from the device.
    SystemConfig sys_cfg;
    sys_cfg.threads = 2;
    sys_cfg.mem.org.ranks = 8;
    ASSERT_GT(sys_cfg.mem.org.banksPerChannel(), 64u);
    sys_cfg.mem.enableHammerObserver = false;

    auto system = std::make_unique<System>(
        sys_cfg, std::make_unique<NullMitigation>());
    for (unsigned t = 0; t < sys_cfg.threads; ++t) {
        auto trace = makeTrace("429.mcf", t, sys_cfg.threads,
                               system->mem().mapper(), 7, AttackParams{});
        system->setTrace(t, std::move(trace));
    }
    system->run(100'000);
    EXPECT_GT(system->core(0).retired(), 0u);
    EXPECT_GT(system->mem().controller().demandActivations(), 0u);
}

} // namespace
} // namespace bh
