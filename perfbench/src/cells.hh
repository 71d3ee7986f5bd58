/**
 * @file
 * The benchmark's simulated cells: which (configuration, mix) pairs each
 * workload runs, how a finished system's results are collected, and the
 * digest that pins those results exactly.
 *
 * Inputs come from the workload seed only: `--seed n` selects input
 * variant n mod kVariants, and the reference digests under
 * perfbench/ref cover every variant. The grid4ch cells are fixed by the
 * registered fig5 experiment and ignore the seed.
 */

#ifndef PERFBENCH_CELLS_HH
#define PERFBENCH_CELLS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "layers.hh"
#include "sim/experiment.hh"

namespace perfbench
{

/** The benchmark's workloads. */
enum class Workload
{
    kBenign,    ///< 8-core benign mixes x {Baseline, BlockHammer}
    kAttack,    ///< attack-pattern catalog x four mechanisms, oracle on
    kGrid4ch,   ///< registered fig5 at --scale 0.5 --channels 4
};

/** Workload by CLI name; false when unknown. */
bool parseWorkload(const std::string &name, Workload &out);

/** CLI name of a workload. */
const char *workloadName(Workload w);

/** Distinct benign/attack inputs; --seed n selects variant n mod this. */
constexpr unsigned kVariants = 16;

/** Mechanisms of the attack workload. */
const std::vector<std::string> &attackMechanisms();

/** One simulated cell. */
struct Cell
{
    bh::ExperimentConfig cfg;
    bh::MixSpec mix;

    /** "<mix>/<mechanism>", unique within a workload. */
    std::string label() const;
};

/**
 * Context of the grid4ch workload: fig5's grid at scale 0.5 and four
 * channels (the runner is left for the caller to set).
 */
bh::BenchContext gridContext();

/** The cells of one workload pass for a seed (grid4ch ignores it). */
std::vector<Cell> workloadCells(Workload w, std::uint64_t seed);

/** Worker threads a workload runs its cells on. */
unsigned workloadWorkers(Workload w);

/**
 * Results of a finished system, collected exactly as
 * bh::runExperiment collects them.
 */
bh::RunResult collectResult(bh::System &system, const Cell &cell);

/**
 * Digest of a cell's simulated results: per-thread IPC, energy, ACT,
 * blocked-ACT and victim-refresh counters, row-buffer outcomes, hammer
 * and oracle verdicts, and the per-lane stats snapshots.
 */
std::string resultDigest(const bh::RunResult &result);

/**
 * bh::buildSystem mirrored with the tracing decorators: each channel's
 * mitigation is wrapped through the MitigationFactory and each core's
 * trace through setTrace; attackers keep buildSystem's
 * maxOutstandingMem override.
 */
std::unique_ptr<bh::System> buildTraced(const Cell &cell, LayerCalls &calls);

/**
 * The payload the registered fig5 experiment records for a cell, from
 * its run result (alone-run IPCs come from bh::aloneIpc's memo).
 */
bh::Json fig5Payload(const Cell &cell, const bh::RunResult &result);

} // namespace perfbench

#endif // PERFBENCH_CELLS_HH
