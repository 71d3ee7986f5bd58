/**
 * @file
 * The per-lane RowHammer observer: the simulator's two ground-truth
 * checks behind one activate/refresh hook. A memory controller calls
 * it once per demand ACT, once per victim-row refresh and once per
 * auto-refresh; it never influences scheduling.
 *
 * - **Failure model** (paper Sections 2.2 and 4; `failureModel`).
 *   Hammering a row N times disturbs a victim k rows away by N * c_k,
 *   with c_k = blastImpactBase^(k-1) (paper worst case 0.5^(k-1)). A
 *   victim whose accumulated disturbance reaches N_RH between two of
 *   its own refreshes suffers a bit-flip. Refreshing a row (auto
 *   refresh or a mitigation's victim refresh) resets its disturbance.
 * - **Activation bound** (Sections 5 and 8.2; `window`). Under
 *   BlockHammer no row is ever activated N_RH times within any tREFW
 *   window. The observer keeps the ACTs of the last tREFW in one
 *   lane-wide FIFO with live per-row counts. The window is *sliding*:
 *   a row's own refresh does NOT reset it. An attack that hammers
 *   N_RH/2 times just before a row's refresh and N_RH/2 just after
 *   shows only N_RH/2 per refresh interval, yet a victim whose own
 *   refresh sits half a window out of phase absorbs the full N_RH (the
 *   straddle case). The verdict is the *disturbance margin*: the
 *   maximum window count any row ever reached, over N_RH; margin >= 1
 *   records the first violation cycle. Mechanisms that protect by
 *   refreshing victims (PARA, PRoHIT, MRLoc) legitimately run at
 *   margin >= 1 with zero bit-flips; secsweep reports both.
 *
 * Both checks share one dense ACT counter per row that resets on the
 * row's own refresh: the refresh-aligned quantity BlockHammer's proof
 * bounds, and the weaker counter the straddle case defeats.
 */

#ifndef BH_ANALYSIS_ROWHAMMER_OBSERVER_HH
#define BH_ANALYSIS_ROWHAMMER_OBSERVER_HH

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/types.hh"
#include "dram/org.hh"

namespace bh
{

/** A detected RowHammer bit-flip event. */
struct BitFlipEvent
{
    unsigned bank = 0;
    RowId victimRow = 0;
    Cycle cycle = 0;
};

/** Configuration of the failure model. */
struct HammerConfig
{
    std::uint32_t nRH = 32768;      ///< RowHammer threshold N_RH
    unsigned blastRadius = 1;       ///< r_blast (1 = adjacent only)
    double blastImpactBase = 0.5;   ///< c_k = base^(k-1)
};

/** Which checks one lane's observer runs. */
struct ObserverConfig
{
    HammerConfig hammer;            ///< N_RH (both checks), blast model
    bool failureModel = true;       ///< disturbance + bit-flip tracking
    bool window = false;            ///< sliding tREFW activation bound
    Cycle windowCycles = 0;         ///< tREFW in CPU cycles (> 0 if window)
};

/** Peak sliding-window observation of a run. */
struct OraclePeak
{
    std::uint64_t acts = 0;         ///< max window count reached
    unsigned bank = 0;
    RowId row = 0;
    Cycle cycle = 0;                ///< when the max was reached
};

/** Both RowHammer checks for one memory channel. */
class RowHammerObserver
{
  public:
    RowHammerObserver(const DramOrg &org, const ObserverConfig &config);
    // FIFO entries point into windowRows' nodes; a copy would alias them.
    RowHammerObserver(const RowHammerObserver &) = delete;
    RowHammerObserver &operator=(const RowHammerObserver &) = delete;

    /** Record a demand activation of (bank, row) at `now`. */
    void onActivate(unsigned bank, RowId row, Cycle now);

    /** Record a refresh of one row: its disturbance and refresh-aligned
     *  count reset; its sliding-window count does not. */
    void onRowRefresh(unsigned bank, RowId row);

    /** Record an auto-refresh of a row range (wrapping) in every bank. */
    void onAutoRefresh(RowId first_row, unsigned num_rows);

    bool modelsFailures() const { return cfg.failureModel; }
    bool checksWindow() const { return cfg.window; }

    // ---- shared ------------------------------------------------------

    /** Total activations observed. */
    std::uint64_t activationCount() const { return acts; }

    /** Max activations any row received between its own refreshes. */
    std::uint64_t maxRowActivations() const { return maxSinceRefresh; }
    std::uint64_t maxActsBetweenRefreshes() const { return maxSinceRefresh; }

    /** Activations of one row since its own last refresh. */
    std::uint32_t
    rowActivations(unsigned bank, RowId row) const
    {
        return sinceRefresh[index(bank, row)];
    }
    std::uint32_t
    actsSinceRefresh(unsigned bank, RowId row) const
    {
        return rowActivations(bank, row);
    }

    // ---- failure model -----------------------------------------------

    /** All bit-flips detected so far. */
    const std::vector<BitFlipEvent> &bitFlips() const { return flips; }

    // ---- activation bound --------------------------------------------

    /** Max sliding-window count any row ever reached. */
    std::uint64_t maxWindowActs() const { return peakState.acts; }

    /** maxWindowActs / N_RH — the security verdict (>= 1 = violated). */
    double
    margin() const
    {
        return static_cast<double>(peakState.acts) / cfg.hammer.nRH;
    }

    /** Where and when the peak was observed. */
    const OraclePeak &peak() const { return peakState; }

    /** First cycle any row's window count reached N_RH (kNoEventCycle
     *  when the bound held for the whole run). */
    Cycle firstViolationCycle() const { return firstViolation; }

    /** Distinct rows whose window count ever reached N_RH. */
    std::uint64_t violatingRows() const { return violated.size(); }

    /** Window count of one row at `now` (test introspection; expires
     *  activations older than the window as a side effect). */
    std::uint32_t currentWindowActs(unsigned bank, RowId row, Cycle now);

  private:
    /** Live window state of one row (absent = no ACT in the window). */
    struct WindowRow
    {
        std::uint32_t count = 0;
        bool violated = false;      ///< already in `violated`
    };
    using WindowRows = std::unordered_map<std::size_t, WindowRow>;

    /** One ACT inside the window. Map nodes never move, and a row's
     *  node lives while any of its ACTs is in the FIFO. */
    struct WindowAct
    {
        Cycle cycle = 0;
        WindowRows::value_type *row = nullptr;
    };

    std::size_t
    index(unsigned bank, RowId row) const
    {
        return static_cast<std::size_t>(bank) * rows + row;
    }

    void disturb(unsigned bank, RowId row, Cycle now);
    void countInWindow(unsigned bank, RowId row, Cycle now);
    void expire(Cycle now);
    void clearRows(std::size_t first, std::size_t count);

    ObserverConfig cfg;
    unsigned rows = 0;
    unsigned banks = 0;
    std::uint64_t acts = 0;

    /** Dense per-(bank, row) ACTs since the row's own refresh. */
    std::vector<std::uint32_t> sinceRefresh;
    std::uint64_t maxSinceRefresh = 0;

    // Failure model (empty when off).
    std::vector<double> disturbance;    ///< per (bank, row)
    std::vector<bool> flipped;          ///< flip already reported
    std::vector<double> impact;         ///< c_k per distance
    std::vector<BitFlipEvent> flips;

    // Activation bound (empty when off).
    std::vector<WindowAct> fifo;        ///< window ACTs from fifoHead on
    std::size_t fifoHead = 0;
    WindowRows windowRows;              ///< flat (bank, row) -> live count
    std::unordered_set<std::size_t> violated;
    OraclePeak peakState;
    Cycle firstViolation = kNoEventCycle;
};

} // namespace bh

#endif // BH_ANALYSIS_ROWHAMMER_OBSERVER_HH
