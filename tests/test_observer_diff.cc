/**
 * @file
 * Differential test of the per-lane RowHammerObserver against a
 * straightforward reference: the two separate checks it replaced — a
 * dense blast-radius failure model with a per-row `% rows` auto-refresh
 * loop, and a sliding-window oracle that keeps one deque of ACT cycles
 * per touched row. Seeded streams of
 * ACTs, single-row refreshes and wrapping auto-refresh sweeps drive
 * both; every getter must agree after every event.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>

#include "analysis/rowhammer_observer.hh"
#include "common/rng.hh"

namespace bh
{
namespace
{

/** Reference: both checks, one row at a time, no shared state. */
class Reference
{
  public:
    Reference(const DramOrg &org, const ObserverConfig &config)
        : cfg(config), rows(org.rowsPerBank), banks(org.banksPerChannel()),
          disturbance(static_cast<std::size_t>(banks) * rows, 0.0),
          flipped(disturbance.size(), false),
          actCount(disturbance.size(), 0)
    {
    }

    void
    onActivate(unsigned bank, RowId row, Cycle now)
    {
        ++acts;
        auto &count = actCount[index(bank, row)];
        ++count;
        maxRowActs = std::max<std::uint64_t>(maxRowActs, count);
        if (cfg.failureModel)
            disturb(bank, row, now);
        if (cfg.window)
            slide(bank, row, now);
    }

    void
    onRowRefresh(unsigned bank, RowId row)
    {
        std::size_t i = index(bank, row);
        disturbance[i] = 0.0;
        actCount[i] = 0;
        flipped[i] = false;
    }

    void
    onAutoRefresh(RowId first_row, unsigned num_rows)
    {
        for (unsigned b = 0; b < banks; ++b)
            for (unsigned r = 0; r < num_rows; ++r)
                onRowRefresh(b, static_cast<RowId>((first_row + r) % rows));
    }

    std::uint32_t
    currentWindowActs(unsigned bank, RowId row, Cycle now)
    {
        auto it = windows.find(index(bank, row));
        if (it == windows.end())
            return 0;
        prune(it->second.acts, now);
        return static_cast<std::uint32_t>(it->second.acts.size());
    }

    ObserverConfig cfg;
    unsigned rows = 0;
    unsigned banks = 0;
    std::vector<double> disturbance;
    std::vector<bool> flipped;
    std::vector<std::uint32_t> actCount;
    std::vector<BitFlipEvent> flips;
    std::uint64_t acts = 0;
    std::uint64_t maxRowActs = 0;
    OraclePeak peak;
    Cycle firstViolation = kNoEventCycle;
    std::uint64_t violatingRows = 0;

  private:
    struct RowWindow
    {
        std::deque<Cycle> acts;
        bool violated = false;
    };

    std::size_t
    index(unsigned bank, RowId row) const
    {
        return static_cast<std::size_t>(bank) * rows + row;
    }

    void
    disturb(unsigned bank, RowId row, Cycle now)
    {
        for (unsigned k = 1; k <= cfg.hammer.blastRadius; ++k) {
            double impact = 1.0;
            for (unsigned i = 1; i < k; ++i)
                impact *= cfg.hammer.blastImpactBase;
            for (int dir : {-1, 1}) {
                std::int64_t victim = static_cast<std::int64_t>(row)
                                      + dir * static_cast<int>(k);
                if (victim < 0 || victim >= static_cast<std::int64_t>(rows))
                    continue;
                std::size_t vi = index(bank, static_cast<RowId>(victim));
                disturbance[vi] += impact;
                if (!flipped[vi] && disturbance[vi] >= cfg.hammer.nRH) {
                    flipped[vi] = true;
                    flips.push_back(
                        BitFlipEvent{bank, static_cast<RowId>(victim), now});
                }
            }
        }
    }

    void
    prune(std::deque<Cycle> &window, Cycle now)
    {
        Cycle horizon = now - cfg.windowCycles;
        while (!window.empty() && window.front() <= horizon)
            window.pop_front();
    }

    void
    slide(unsigned bank, RowId row, Cycle now)
    {
        RowWindow &w = windows[index(bank, row)];
        w.acts.push_back(now);
        prune(w.acts, now);
        auto count = static_cast<std::uint64_t>(w.acts.size());
        if (count > peak.acts)
            peak = OraclePeak{count, bank, row, now};
        if (count >= cfg.hammer.nRH) {
            if (firstViolation == kNoEventCycle)
                firstViolation = now;
            if (!w.violated) {
                w.violated = true;
                ++violatingRows;
            }
        }
    }

    std::map<std::size_t, RowWindow> windows;
};

/** Stream shape: a few hot rows of mostly one bank, hammered close
 *  together (double-sided pairs, blast-radius overlap, both bank
 *  edges), a cold tail over every bank, and tiny cycle steps so ACTs
 *  land exactly one window apart. */
struct StreamSpec
{
    std::uint64_t seed = 1;
    unsigned events = 20000;
    ObserverConfig cfg;
    unsigned sweepRows = 24;        ///< auto-refresh rows per REF
};

void
expectSameRow(RowHammerObserver &obs, Reference &ref, unsigned bank,
              RowId row, Cycle now, unsigned event)
{
    ASSERT_EQ(obs.rowActivations(bank, row),
              ref.actCount[static_cast<std::size_t>(bank) * ref.rows + row])
        << "event " << event << " bank " << bank << " row " << row;
    if (ref.cfg.window) {
        ASSERT_EQ(obs.currentWindowActs(bank, row, now),
                  ref.currentWindowActs(bank, row, now))
            << "event " << event << " bank " << bank << " row " << row;
    }
}

void
expectSameVerdicts(RowHammerObserver &obs, Reference &ref, unsigned event)
{
    ASSERT_EQ(obs.activationCount(), ref.acts) << "event " << event;
    ASSERT_EQ(obs.maxRowActivations(), ref.maxRowActs) << "event " << event;
    ASSERT_EQ(obs.maxActsBetweenRefreshes(), ref.maxRowActs)
        << "event " << event;
    if (ref.cfg.failureModel) {
        ASSERT_EQ(obs.bitFlips().size(), ref.flips.size())
            << "event " << event;
        if (!ref.flips.empty()) {
            const BitFlipEvent &a = obs.bitFlips().back();
            const BitFlipEvent &b = ref.flips.back();
            ASSERT_EQ(a.bank, b.bank) << "event " << event;
            ASSERT_EQ(a.victimRow, b.victimRow) << "event " << event;
            ASSERT_EQ(a.cycle, b.cycle) << "event " << event;
        }
    }
    if (ref.cfg.window) {
        ASSERT_EQ(obs.maxWindowActs(), ref.peak.acts) << "event " << event;
        ASSERT_EQ(obs.margin(),
                  static_cast<double>(ref.peak.acts) / ref.cfg.hammer.nRH);
        ASSERT_EQ(obs.peak().bank, ref.peak.bank) << "event " << event;
        ASSERT_EQ(obs.peak().row, ref.peak.row) << "event " << event;
        ASSERT_EQ(obs.peak().cycle, ref.peak.cycle) << "event " << event;
        ASSERT_EQ(obs.firstViolationCycle(), ref.firstViolation)
            << "event " << event;
        ASSERT_EQ(obs.violatingRows(), ref.violatingRows)
            << "event " << event;
    }
}

/** Replay one seeded stream through both; returns the flips and
 *  violating rows it produced, so callers can check that the stream
 *  really exercised each check. */
std::pair<std::size_t, std::uint64_t>
replay(const StreamSpec &spec)
{
    DramOrg org = DramOrg::tinyConfig();
    RowHammerObserver obs(org, spec.cfg);
    Reference ref(org, spec.cfg);
    Rng rng(spec.seed);
    const unsigned banks = org.banksPerChannel();
    const RowId rows = org.rowsPerBank;
    const RowId hot[] = {0, 2, 40, 42, 44, 120, 254, 255};
    Cycle now = 0;
    RowId sweep = 0;
    for (unsigned e = 0; e < spec.events; ++e) {
        now += static_cast<Cycle>(rng.below(4));
        std::uint64_t kind = rng.below(100);
        unsigned bank = rng.below(4) != 0
                            ? 0
                            : static_cast<unsigned>(rng.below(banks));
        RowId row = rng.below(8) != 0
                        ? hot[rng.below(sizeof(hot) / sizeof(hot[0]))]
                        : static_cast<RowId>(rng.below(rows));
        if (kind < 88) {
            obs.onActivate(bank, row, now);
            ref.onActivate(bank, row, now);
        } else if (kind < 97) {
            obs.onRowRefresh(bank, row);
            ref.onRowRefresh(bank, row);
        } else {
            // The device's sweep pointer, plus the odd oversized sweep
            // that covers every row.
            unsigned n = rng.below(50) == 0 ? rows + 5 : spec.sweepRows;
            obs.onAutoRefresh(sweep, n);
            ref.onAutoRefresh(sweep, n);
            sweep = static_cast<RowId>((sweep + n) % rows);
            for (unsigned b = 0; b < banks; ++b)
                for (RowId r = 0; r < rows; ++r)
                    expectSameRow(obs, ref, b, r, now, e);
        }
        expectSameRow(obs, ref, bank, row, now, e);
        expectSameVerdicts(obs, ref, e);
        if (::testing::Test::HasFatalFailure())
            return {0, 0};
    }
    return {ref.flips.size(), ref.violatingRows};
}

ObserverConfig
config(bool failure_model, bool window, unsigned radius, std::uint32_t n_rh,
       Cycle window_cycles)
{
    ObserverConfig cfg;
    cfg.hammer.nRH = n_rh;
    cfg.hammer.blastRadius = radius;
    cfg.failureModel = failure_model;
    cfg.window = window;
    cfg.windowCycles = window_cycles;
    return cfg;
}

TEST(ObserverDifferential, BothChecksRadiusOneShortWindow)
{
    // A 200-cycle window is far shorter than the ~30k-cycle stream.
    StreamSpec spec;
    spec.seed = 0x0b51;
    spec.cfg = config(true, true, 1, 8, 200);
    auto [flips, violating] = replay(spec);
    EXPECT_GT(flips, 0u);
    EXPECT_GT(violating, 0u);
}

TEST(ObserverDifferential, BothChecksRadiusTwoShortWindow)
{
    StreamSpec spec;
    spec.seed = 0x0b52;
    spec.cfg = config(true, true, 2, 12, 300);
    spec.sweepRows = 40;
    auto [flips, violating] = replay(spec);
    EXPECT_GT(flips, 0u);
    EXPECT_GT(violating, 0u);
}

TEST(ObserverDifferential, WindowLongerThanTheStream)
{
    // Nothing ever expires: the count is every ACT since the start.
    StreamSpec spec;
    spec.seed = 0x0b53;
    spec.cfg = config(true, true, 2, 400, 1'000'000'000);
    EXPECT_GT(replay(spec).second, 0u);
}

TEST(ObserverDifferential, WindowOnlyAsTheFuzzWorkloadRunsIt)
{
    StreamSpec spec;
    spec.seed = 0x0b54;
    spec.cfg = config(false, true, 1, 6, 150);
    auto [flips, violating] = replay(spec);
    EXPECT_EQ(flips, 0u);
    EXPECT_GT(violating, 0u);
}

TEST(ObserverDifferential, FailureModelOnly)
{
    StreamSpec spec;
    spec.seed = 0x0b55;
    spec.cfg = config(true, false, 2, 24, 0);
    auto [flips, violating] = replay(spec);
    EXPECT_GT(flips, 0u);
    EXPECT_EQ(violating, 0u);
}

} // namespace
} // namespace bh
