/**
 * @file
 * One benchmark run: set-up passes, measured passes, the traced run,
 * the correctness gate against the recorded references, and the
 * metrics each run reports.
 *
 * End-to-end run (trace off): construct-only set-up passes, then a
 * fixed number of measured passes of the workload's cells through
 * bh::runExperiment, as many as fit the time budget (grid4ch runs
 * exactly one, through bh::runBench: bh::aloneIpc's process-wide memo
 * would make later passes cheaper). wall_s is the sum over cells of
 * each cell's median pass, setup_s the sum over cells of the median,
 * across set-up processes, of each process's fastest build.
 *
 * Traced run (trace on): one untraced pass, one pass through the
 * tracing decorators (its digests must equal the untraced ones), and
 * one untraced pass with the hammer observer and security oracle off.
 */

#ifndef PERFBENCH_WORKLOAD_HH
#define PERFBENCH_WORKLOAD_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cells.hh"

namespace perfbench
{

/** Options of one benchmark run. */
struct RunOptions
{
    Workload workload = Workload::kBenign;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string refDir;     ///< recorded references (perfbench/ref)
    std::string spansPath;  ///< traced runs write their spans here
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Outcome of one benchmark run. */
struct RunReport
{
    std::uint64_t attempted = 0;    ///< cell (and report) checks made
    std::uint64_t failed = 0;       ///< checks that mismatched or aborted
    std::vector<Metric> metrics;
    std::vector<double> passWalls;      ///< measured passes (trace off)
    std::vector<std::string> problems;  ///< one line per failed check
};

/** A metric's name and unit. */
struct MetricDef
{
    std::string name;
    std::string unit;
};

/** End-to-end metrics (reported with trace off), in report order. */
const std::vector<MetricDef> &endToEndMetrics();

/** Per-layer metrics (reported with trace on), in report order. */
const std::vector<MetricDef> &perLayerMetrics();

/** Execute one run; fatal() on a missing or unreadable reference. */
RunReport runWorkload(const RunOptions &opt);

/**
 * Each cell's fastest bh::buildSystem time, in seconds and cell order,
 * over `passes` construct-only passes (systems built one at a time).
 */
std::vector<double> setupMinimums(Workload w, std::uint64_t seed,
                                  unsigned passes);

/** Reference digests of one workload variant, by cell label. */
using CellRefs = std::map<std::string, std::string>;

/** Path of a workload's reference file under `ref_dir`. */
std::string refPath(const std::string &ref_dir, Workload w);

/** Load the references of the variant `seed` selects. */
bool loadCellRefs(const std::string &ref_dir, Workload w, std::uint64_t seed,
                  CellRefs &out, std::string &err);

/**
 * Check one cell's digest against the references: a missing or
 * different reference digest is a failure. Adds to report.attempted
 * and, on failure, report.failed and report.problems.
 */
void checkCell(const CellRefs &refs, const std::string &label,
               const std::string &digest, RunReport &report);

/**
 * Run every benign/attack variant and the grid4ch report through the
 * library's own entry points (bh::runExperiment, bh::runBench) and
 * write the reference files into `dir`. Cells run on every hardware
 * thread; the results do not depend on the worker count.
 */
void recordReferences(const std::string &dir);

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_HH
