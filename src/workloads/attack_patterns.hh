/**
 * @file
 * Composable adversarial RowHammer attack-pattern catalog.
 *
 * The classic generator in attack.hh models the paper's Section 7
 * synthetic attack (alternating aggressors at full speed). Deployed
 * mitigations, however, were broken by patterns that look nothing like
 * it: TRRespass-style many-sided bank-parallel hammering, Half-Double
 * neighbor escalation, below-threshold distributed "wave" attacks, and
 * throttling probes (see PAPERS.md: TRRespass, BreakHammer, the
 * RowHammer SoK). This catalog turns those evasion strategies into
 * first-class, seed-deterministic workloads.
 *
 * Every pattern family is compiled at construction into a fixed cyclic
 * "lap" of trace entries (addresses plus pacing bubbles), so a pattern
 * is bit-deterministic per seed and its issue behavior can be reasoned
 * about statically. Each spec also *declares its ACT-rate envelope*:
 * the per-row activation ceiling the pattern intends to stay under
 * within any refresh window (tREFW). The envelope is part of the attack
 * taxonomy — evaders promise to stay below the blacklist threshold
 * N_BL, full-rate hammers are bounded only by DRAM timing shares — and
 * tests/test_attacks.cc holds every catalog pattern to its declaration
 * against the RowHammerObserver's measured sliding-window counts.
 */

#ifndef BH_WORKLOADS_ATTACK_PATTERNS_HH
#define BH_WORKLOADS_ATTACK_PATTERNS_HH

#include <memory>
#include <string>
#include <vector>

#include "core/trace.hh"
#include "dram/address_map.hh"

namespace bh
{

/**
 * The threshold/timing environment a pattern instance is resolved
 * against. Patterns pace themselves relative to the run's blacklist
 * threshold and refresh window, so the same catalog entry adapts to
 * compressed and paper-scale configurations alike.
 */
struct AttackEnv
{
    /** RowHammer threshold of the run: the ACT count (per row, per
     *  tREFW window) at which disturbance flips bits. Unitless count. */
    std::uint32_t nRH = 2048;
    /** BlockHammer blacklist threshold, N_BL = N_RH / 4 per the paper.
     *  Evader-family patterns pace themselves just under it. */
    std::uint32_t nBL = 512;
    /** Refresh-window length tREFW, in CPU cycles (3.2 GHz clock). All
     *  declared envelopes are per-window ceilings over this span. */
    Cycle windowCycles = 1'600'000;
    /** Same-bank ACT-to-ACT spacing (tRC), in CPU cycles: the bank
     *  pipeline floor every full-rate envelope divides the window by. */
    Cycle tRC = 148;
    /** Max instructions the attacking core can issue per cycle; pacing
     *  bubbles convert to time at this rate (a hard issue floor). */
    unsigned issueWidth = 4;
    /** Stream seed: catalog families draw lap-compile randomness
     *  (phases, shuffles) from it; kFuzz laps ignore it (their layout
     *  is fully fixed by the parameter vector). */
    std::uint64_t seed = 1;
};

/**
 * One aggressor element of a frequency-domain fuzz pattern: a
 * double-sided pair around the victim site `baseRow + rowOffset`,
 * described Blacksmith-style by how often it fires within the pattern
 * period, at which phase, and with what amplitude.
 */
struct FuzzAggressor
{
    /** Victim-site offset from FuzzPatternParams::baseRow, in rows
     *  (signed). The pair hammers rows site-1 and site+1. */
    std::int32_t rowOffset = 0;
    /** Firings per period: the pair fires in every slot s with
     *  (s + phase) % max(1, period / freq) == 0. 1 <= freq <= period. */
    std::uint32_t freq = 1;
    /** Phase offset in slots, 0 <= phase < period: shifts which slots
     *  this pair fires in relative to the others. */
    std::uint32_t phase = 0;
    /** Amplitude: consecutive (site-1, site+1) pair accesses emitted
     *  per firing — intensity in the time domain. >= 1. */
    std::uint32_t amp = 1;

    bool
    operator==(const FuzzAggressor &o) const
    {
        return rowOffset == o.rowOffset && freq == o.freq &&
            phase == o.phase && amp == o.amp;
    }
};

/**
 * Full parameter vector of one generated frequency-domain pattern (see
 * workloads/fuzz_patterns.hh for sampling, mutation, and the compact
 * serialized form). Together with the AttackEnv it resolves against,
 * this vector fully determines the compiled lap — no RNG involved — so
 * a serialized pattern replays bit-exactly anywhere.
 */
struct FuzzPatternParams
{
    /** Seed of the search stream that produced this vector. Provenance
     *  only: the lap never draws from it, but it is serialized so a
     *  found pattern names the lineage it came from. */
    std::uint64_t seed = 0;
    unsigned numBanks = 16;     ///< banks hammered concurrently
    unsigned firstBank = 0;     ///< first bank of the hammered range
    RowId baseRow = 4096;       ///< victim-site anchor row
    /** Period of the pattern in slots: the frequency domain's time
     *  base. One lap spans exactly one period. */
    std::uint32_t period = 8;
    /** Pacing bubbles (non-memory instructions) appended after each
     *  slot's accesses; 0 = full rate. Converts to time at
     *  AttackEnv::issueWidth instructions per cycle. */
    std::uint32_t slotGap = 0;
    /** The aggressor set; at least one entry. */
    std::vector<FuzzAggressor> aggressors;

    bool
    operator==(const FuzzPatternParams &o) const
    {
        return seed == o.seed && numBanks == o.numBanks &&
            firstBank == o.firstBank && baseRow == o.baseRow &&
            period == o.period && slotGap == o.slotGap &&
            aggressors == o.aggressors;
    }
};

/** One catalog entry: a declarative attack-pattern shape. */
struct AttackPatternSpec
{
    enum class Family
    {
        /** `sides` aggressors around one victim, bank-interleaved. */
        kNSided,
        /** A *distinct* victim site per bank, `sides` aggressors each
         *  (TRRespass-style bank-parallel many-sided hammering). */
        kBankParallel,
        /** Half-Double escalation: far aggressors (victim +/- 2)
         *  hammered `heavyRatio` times per near (victim +/- 1) pass. */
        kHalfDouble,
        /** Low-rate distributed evader: many victim sites, per-row
         *  pacing tuned to stay just under N_BL per tREFW window. */
        kEvader,
        /** Rotating-victim wave: full-rate double-sided bursts that
         *  dwell on one site, then move on; optional quiet gap per
         *  visit turns it into a BreakHammer-style throttling probe. */
        kWave,
        /** Blacksmith-style frequency-domain pattern from the fuzzer:
         *  the `fuzz` parameter vector (per-pair frequency, phase,
         *  amplitude over a slot period) is compiled directly — see
         *  workloads/fuzz_patterns.hh. */
        kFuzz,
    };

    std::string name;           ///< catalog / CLI identifier
    std::string summary;        ///< one-line description (--list)
    Family family = Family::kNSided;

    /** Banks hammered concurrently; [firstBank, firstBank + numBanks)
     *  must stay inside the channel's flat bank range. */
    unsigned numBanks = 16;
    unsigned firstBank = 0;     ///< first flat bank of the hammered range
    RowId victimRow = 4096;     ///< first (or only) victim site (row id)
    /** Aggressors per victim site; each gets a 1/sides share of the
     *  site's access stream. >= 1. */
    unsigned sides = 2;
    unsigned sites = 1;         ///< victim sites (bankpar/evader/wave)
    RowId siteStride = 64;      ///< row distance between victim sites
    unsigned heavyRatio = 7;    ///< half-double far:near hammer ratio
    /** Evader budget as a fraction of N_BL: its lap is bubble-paced so
     *  no row exceeds budgetFracNBL x N_BL ACTs per window. (0, 1]. */
    double budgetFracNBL = 0.875;
    unsigned dwell = 512;       ///< wave: trace entries per site visit
    /** Wave: quiet (non-memory) instructions after each site visit;
     *  > 0 turns the wave into a throttling probe. */
    std::uint32_t gapInstrs = 0;
    /** kFuzz only: the frequency-domain parameter vector the lap is
     *  compiled from (ignored by every other family). */
    FuzzPatternParams fuzz;

    /**
     * Declared envelope: the ceiling on activations any single row may
     * receive within one tREFW-length window under this pattern,
     * resolved against `env`. Derived per family from the row's share
     * of its bank's ACT capacity (window / tRC) or, for evaders, from
     * the blacklist threshold, with slack for queueing jitter.
     */
    std::uint64_t maxRowActsPerWindow(const AttackEnv &env) const;

    /** Human-readable envelope formula (for --list / docs). */
    std::string envelopeDescr() const;

    /**
     * Outstanding-request budget an attacking core needs to keep every
     * hammered bank's ACT pipeline busy (see buildSystem).
     */
    unsigned maxOutstanding() const { return 2 * numBanks; }
};

/** All cataloged attack patterns, in canonical order. */
const std::vector<AttackPatternSpec> &attackPatternCatalog();

/** Look up a catalog pattern by name; nullptr when unknown. */
const AttackPatternSpec *findAttackPattern(const std::string &name);

/** Mix-app prefix denoting a catalog pattern ("attack:<name>"). */
inline const std::string kAttackPatternPrefix = "attack:";

/** "attack:<name>" for a catalog pattern (the mix-app spelling). */
inline std::string
attackPatternApp(const std::string &pattern_name)
{
    return kAttackPatternPrefix + pattern_name;
}

/**
 * Cache-bypassing trace stream for one pattern instance: cycles through
 * the lap compiled from (spec, env) at construction. Bit-deterministic
 * per (spec, env) including the seed; reset() replays the identical
 * stream.
 */
class PatternTrace : public TraceSource
{
  public:
    PatternTrace(const AttackPatternSpec &spec, const AddressMapper &mapper,
                 const AttackEnv &env);

    bool next(TraceEntry &entry) override;
    void reset() override { position = 0; }

    const AttackPatternSpec &spec() const { return cfg; }

    /** The compiled lap (tests inspect pacing and address layout). */
    const std::vector<TraceEntry> &lap() const { return entries; }

  private:
    AttackPatternSpec cfg;
    std::vector<TraceEntry> entries;
    std::uint64_t position = 0;
};

/** Instantiate the trace for one catalog pattern. */
std::unique_ptr<TraceSource>
makeAttackPatternTrace(const AttackPatternSpec &spec,
                       const AddressMapper &mapper, const AttackEnv &env);

} // namespace bh

#endif // BH_WORKLOADS_ATTACK_PATTERNS_HH
