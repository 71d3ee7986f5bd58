#include "workload.hh"

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <exception>

#include "bench/registry.hh"
#include "common/fsio.hh"
#include "common/log.hh"
#include "sim/runner.hh"
#include "sim/system.hh"

namespace perfbench
{

namespace
{

/**
 * setup_s comes from about kSetupProcs fresh processes, run one at a
 * time before the measured passes and after each one, each making
 * kSetupPasses construct-only passes. Builds zero large arrays and
 * follow the host's memory bandwidth, which other tenants move for
 * many seconds at a time (a 4-channel build read ~3 or ~8 ms in every
 * pass of one process), so the processes are spread over the run.
 */
constexpr unsigned kSetupProcs = 8;
constexpr unsigned kSetupPasses = 3;

/**
 * Measured passes of an end-to-end run: as many whole passes as fit
 * in `seconds` at the workload's typical pass time on a 4-vCPU Xeon
 * (benign ~8 s, attack ~12 s), at least one. A fixed count, so host
 * speed never decides how many passes the medians are taken over.
 * grid4ch runs exactly one: bh::aloneIpc's process-wide memo would
 * make later passes cheaper.
 */
unsigned
measuredPasses(Workload w, double seconds)
{
    double typical = w == Workload::kBenign ? 8.0 : 12.0;
    if (w == Workload::kGrid4ch || seconds < typical)
        return 1;
    return static_cast<unsigned>(seconds / typical);
}

/** Every mechanism any workload runs, as spelled in metric names. */
std::vector<std::string>
metricMechanisms()
{
    std::vector<std::string> out = {"Baseline"};
    for (const std::string &m : bh::comparisonMechanisms())
        out.push_back(m);
    for (std::string &m : out)
        std::replace(m.begin(), m.end(), '+', '-');
    return out;
}

} // namespace

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"wall_s", "s"},
        {"sim_cycles_per_s", "cycles/s"},
        {"setup_s", "s"},
        {"peak_rss_mb", "MB"},
        {"pass_frac", "frac"},
    };
    return defs;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = [] {
        std::vector<MetricDef> d = {
            {"sim.run_self_s", "s"},
            {"sim.ns_per_cycle", "ns/cycle"},
            {"sim.skip_frac", "frac"},
            {"sim.chunk_frac", "frac"},
            {"sim.build_ms", "ms"},
            {"bench.busy_frac", "frac"},
            {"bench.cell_s_p50", "s"},
            {"bench.cell_s_max", "s"},
            {"workloads.next_calls", "count"},
            {"workloads.next_ns", "ns"},
            {"mitig.safe_calls", "count"},
            {"mitig.safe_ns", "ns"},
            {"mitig.act_calls", "count"},
            {"mitig.act_ns", "ns"},
            {"mitig.tick_calls", "count"},
            {"mitig.tick_ns", "ns"},
            {"mitig.share", "frac"},
        };
        for (const std::string &m : metricMechanisms()) {
            d.push_back({"mitig." + m + ".act_ns", "ns"});
            d.push_back({"mitig." + m + ".safe_ns", "ns"});
        }
        for (MetricDef m : std::vector<MetricDef>{
                 {"analysis.oracle_share", "frac"},
                 {"mem.demand_acts", "count"},
                 {"mem.blocked_queries", "count"},
                 {"mem.blocked_frac", "frac"},
                 {"mem.row_hit_frac", "frac"},
                 {"mem.victim_refreshes", "count"},
                 {"mem.quota_rejects", "count"},
                 {"mem.host_ns_per_act", "ns"},
                 {"cache.llc_accesses", "count"},
                 {"cache.llc_hit_frac", "frac"},
                 {"core.retired", "count"},
                 {"core.stall_frac", "frac"},
                 {"dram.bus_busy_frac", "frac"},
                 {"trace.overhead_frac", "frac"},
             })
            d.push_back(m);
        return d;
    }();
    return defs;
}

namespace
{

/** Values by name, emitted in table order; a missing value is a bug. */
std::vector<Metric>
emit(const std::vector<MetricDef> &defs,
     const std::map<std::string, double> &values)
{
    std::vector<Metric> out;
    for (const MetricDef &d : defs) {
        auto it = values.find(d.name);
        if (it == values.end())
            bh::panic("perfbench: metric %s was not computed",
                      d.name.c_str());
        out.push_back({d.name, it->second, d.unit});
    }
    return out;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
sum(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return s;
}

double
frac(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** How a pass builds and runs its cells. */
enum class Mode
{
    kPlain,     ///< bh::runExperiment, as configured
    kTraced,    ///< buildTraced: decorators, spans
    kNoOracle,  ///< bh::runExperiment without hammer observer and oracle
};

/** Simulated whole-run counters of a finished system. */
struct SimCounts
{
    std::uint64_t cycles = 0;
    std::uint64_t skipped = 0;
    std::uint64_t chunked = 0;
    std::uint64_t llcHits = 0;
    std::uint64_t llcMisses = 0;
    std::uint64_t retired = 0;
    std::uint64_t stallCycles = 0;
    std::uint64_t coreCycles = 0;   ///< cores x cycles
    std::uint64_t busBusy = 0;
    std::uint64_t busCycles = 0;    ///< channels x cycles
    std::uint64_t quotaRejects = 0;

    void
    add(const SimCounts &o)
    {
        cycles += o.cycles;
        skipped += o.skipped;
        chunked += o.chunked;
        llcHits += o.llcHits;
        llcMisses += o.llcMisses;
        retired += o.retired;
        stallCycles += o.stallCycles;
        coreCycles += o.coreCycles;
        busBusy += o.busBusy;
        busCycles += o.busCycles;
        quotaRejects += o.quotaRejects;
    }
};

SimCounts
simCounts(bh::System &sys)
{
    SimCounts c;
    auto cycles = static_cast<std::uint64_t>(sys.now());
    c.cycles = cycles;
    c.skipped = sys.skippedCycles();
    c.chunked = sys.chunkedCycles();
    if (bh::Llc *llc = sys.llc()) {
        c.llcHits = llc->hits();
        c.llcMisses = llc->misses();
    }
    for (unsigned t = 0; t < sys.threads(); ++t) {
        c.retired += sys.core(t).retired();
        c.stallCycles += sys.core(t).stallCycles();
    }
    c.coreCycles = cycles * sys.threads();
    bh::MemSystem &mem = sys.mem();
    for (unsigned ch = 0; ch < mem.channels(); ++ch)
        c.busBusy += mem.device(ch).busBusyCycles();
    c.busCycles = cycles * mem.channels();
    c.quotaRejects = mem.quotaRejects();
    return c;
}

/** One executed cell. */
struct CellRun
{
    bool ok = false;
    std::string digest;
    bh::RunResult result;
    SimCounts counts;       ///< traced cells; only .cycles otherwise
    LayerCalls calls;       ///< traced cells only
    double wallS = 0.0;
    double buildS = 0.0;    ///< traced cells only
    double runS = 0.0;      ///< warm-up plus measurement; traced only
};

/** Time fn(), recording a span under `parent` when `spans` is set. */
template <typename F>
double
phase(SpanLog *spans, const char *name, int parent, F &&fn)
{
    int id = spans ? spans->begin(name, parent) : -1;
    double t0 = nowS();
    fn();
    double dt = nowS() - t0;
    if (spans)
        spans->end(id);
    return dt;
}

CellRun
runCell(const Cell &cell, Mode mode, SpanLog *spans, int parent)
{
    CellRun out;
    double t0 = nowS();
    int cell_span = spans ? spans->begin("cell:" + cell.label(), parent) : -1;
    try {
        if (mode == Mode::kTraced) {
            std::unique_ptr<bh::System> sys;
            out.buildS = phase(spans, "build", cell_span, [&] {
                sys = buildTraced(cell, out.calls);
            });
            out.runS = phase(spans, "warmup", cell_span, [&] {
                if (cell.cfg.warmupCycles > 0)
                    sys->run(cell.cfg.warmupCycles);
            });
            out.runS += phase(spans, "measure", cell_span, [&] {
                sys->startMeasurement();
                sys->run(cell.cfg.runCycles);
            });
            out.result = collectResult(*sys, cell);
            out.counts = simCounts(*sys);
        } else {
            // The program's own path; the traced pass's collectResult
            // copy is checked against its digests.
            bh::ExperimentConfig cfg = cell.cfg;
            if (mode == Mode::kNoOracle) {
                cfg.hammerObserver = false;
                cfg.securityOracle = false;
            }
            std::uint64_t c0 = bh::simCyclesThisThread();
            out.result = bh::runExperiment(cfg, cell.mix);
            out.counts.cycles = bh::simCyclesThisThread() - c0;
        }
        out.digest = resultDigest(out.result);
        out.ok = true;
    } catch (const std::exception &e) {
        out.digest = std::string("abort: ") + e.what();
    }
    if (spans)
        spans->end(cell_span);
    out.wallS = nowS() - t0;
    return out;
}

/** One pass over a workload's cells. */
struct Pass
{
    double wallS = 0.0;
    std::vector<CellRun> cells;

    std::vector<double>
    cellWalls() const
    {
        std::vector<double> v;
        for (const CellRun &c : cells)
            v.push_back(c.wallS);
        return v;
    }
};

Pass
runPass(const std::vector<Cell> &cells, Mode mode, unsigned workers,
        SpanLog *spans, int parent)
{
    bh::Runner runner(workers);
    Pass p;
    p.cells.resize(cells.size());
    double t0 = nowS();
    runner.forEach(cells.size(), [&](std::size_t i) {
        p.cells[i] = runCell(cells[i], mode, spans, parent);
    });
    p.wallS = nowS() - t0;
    return p;
}

/** The registered fig5 experiment run through runBench. */
struct GridPass
{
    double wallS = 0.0;
    std::uint64_t simCycles = 0;    ///< alone runs included
    std::vector<double> cellWalls;
    bh::Json doc;
};

GridPass
runGridPass()
{
    const bh::BenchInfo *info = bh::findBench("fig5");
    if (!info)
        bh::fatal("perfbench: experiment fig5 is not registered");
    bh::BenchContext ctx = gridContext();
    bh::Runner runner(workloadWorkers(Workload::kGrid4ch));
    ctx.runner = &runner;
    GridPass g;
    std::uint64_t c0 = bh::simCyclesTotal();
    double t0 = nowS();
    bh::runBench(*info, ctx);
    g.wallS = nowS() - t0;
    g.simCycles = bh::simCyclesTotal() - c0;
    for (const auto &kv : ctx.cellPerf)
        g.cellWalls.push_back(kv.second.wallS);
    g.doc = std::move(ctx.result);
    return g;
}


/**
 * Sum over cells of stat(each cell's times across passes), with
 * per_pass[p][c]: a host slowdown that hits one pass's cells only
 * partly moves the result far less than it moves that pass's wall.
 */
template <typename Stat>
double
sumOverCells(const std::vector<std::vector<double>> &per_pass, Stat stat)
{
    double total = 0.0;
    for (std::size_t c = 0; !per_pass.empty() && c < per_pass[0].size();
         ++c) {
        std::vector<double> samples;
        for (const std::vector<double> &pass : per_pass)
            samples.push_back(pass[c]);
        total += stat(samples);
    }
    return total;
}

/**
 * setupMinimums of the run's workload and seed, measured in a child
 * process (this program with --setup-only); waits for the child.
 */
std::vector<double>
setupInChild(const RunOptions &opt)
{
    std::string seed = std::to_string(opt.seed);
    std::string passes = std::to_string(kSetupPasses);
    std::vector<const char *> argv = {
        "bh_perfbench", "--workload", workloadName(opt.workload), "--seed",
        seed.c_str(), "--setup-only", passes.c_str(), nullptr};
    int fds[2];
    if (pipe(fds) != 0)
        bh::fatal("perfbench: pipe: %s", std::strerror(errno));
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    pid_t pid = 0;
    int err = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                          const_cast<char *const *>(argv.data()), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    std::string out;
    if (err == 0) {
        char buf[4096];
        ssize_t n = 0;
        while ((n = read(fds[0], buf, sizeof buf)) > 0 ||
               (n < 0 && errno == EINTR))
            out.append(buf, n > 0 ? static_cast<std::size_t>(n) : 0);
    }
    close(fds[0]);
    if (err != 0)
        bh::fatal("perfbench: cannot start a set-up process: %s",
                  std::strerror(err));
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    bh::Json times;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
        !bh::Json::parse(out, times) || times.type() != bh::Json::Type::Array)
        bh::fatal("perfbench: set-up process failed: %s", out.c_str());
    std::vector<double> v;
    for (std::size_t i = 0; i < times.size(); ++i)
        v.push_back(times.at(i).asDouble());
    return v;
}

std::string
readOrDie(const std::string &path)
{
    std::string text, err;
    if (!bh::readFile(path, text, err))
        bh::fatal("perfbench: cannot read reference %s: %s", path.c_str(),
                  err.c_str());
    return text;
}

/** Check a grid4ch report against the recorded one, cell by cell. */
void
checkGridReport(const std::string &ref_dir, const bh::Json &doc,
                const std::vector<Cell> &cells, RunReport &report)
{
    std::string path = refPath(ref_dir, Workload::kGrid4ch);
    std::string text = readOrDie(path);
    bh::Json ref;
    std::string err;
    if (!bh::Json::parse(text, ref, &err))
        bh::fatal("perfbench: %s: %s", path.c_str(), err.c_str());
    const bh::Json *ref_cells = ref.find("cells");
    const bh::Json *got_cells = doc.find("cells");
    if (!ref_cells || !got_cells)
        bh::fatal("perfbench: %s or the grid4ch run has no cells",
                  path.c_str());
    if (ref_cells->objectItems().size() != cells.size() ||
        got_cells->objectItems().size() != cells.size()) {
        ++report.attempted;
        ++report.failed;
        report.problems.push_back(bh::strfmt(
            "grid4ch: %zu reference cells, %zu run, %zu mirrored",
            ref_cells->objectItems().size(),
            got_cells->objectItems().size(), cells.size()));
        return;
    }
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const bh::Json *want = ref_cells->find(std::to_string(i));
        const bh::Json *got = got_cells->find(std::to_string(i));
        ++report.attempted;
        if (!want || !got || want->dump() != got->dump()) {
            ++report.failed;
            report.problems.push_back("grid4ch cell " + std::to_string(i) +
                                      " (" + cells[i].label() +
                                      ") differs from the reference");
        }
    }
    ++report.attempted;
    if (doc.dump(2) + "\n" != text) {
        ++report.failed;
        report.problems.push_back("grid4ch BENCH_fig5 report differs from "
                                  "the reference");
    }
}

/** The references of the run's workload and seed; fatal() if absent. */
CellRefs
cellRefsOrDie(const RunOptions &opt)
{
    CellRefs refs;
    std::string err;
    if (!loadCellRefs(opt.refDir, opt.workload, opt.seed, refs, err))
        bh::fatal("perfbench: %s", err.c_str());
    return refs;
}

/** Digests of a pass, by label: the reference for a traced pass. */
CellRefs
digestsOf(const std::vector<Cell> &cells, const Pass &pass)
{
    CellRefs refs;
    for (std::size_t i = 0; i < cells.size(); ++i)
        refs[cells[i].label()] = pass.cells[i].digest;
    return refs;
}

void
checkPass(const CellRefs &refs, const std::vector<Cell> &cells,
          const Pass &pass, RunReport &report)
{
    for (std::size_t i = 0; i < cells.size(); ++i)
        checkCell(refs, cells[i].label(), pass.cells[i].digest, report);
}

double
peakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;   // KiB on Linux
}

/** End-to-end run: set-up passes, then measured passes. */
void
endToEnd(const RunOptions &opt, const std::vector<Cell> &cells,
         RunReport &report)
{
    unsigned passes = measuredPasses(opt.workload, opt.seconds);
    std::vector<std::vector<double>> setups;
    auto setupRound = [&] {
        unsigned rounds = passes + 1;
        for (unsigned i = 0; i < (kSetupProcs + rounds - 1) / rounds; ++i)
            setups.push_back(setupInChild(opt));
    };
    setupRound();

    double wall = 0.0;
    double cycles = 0.0;
    if (opt.workload == Workload::kGrid4ch) {
        GridPass g = runGridPass();
        setupRound();
        checkGridReport(opt.refDir, g.doc, cells, report);
        report.passWalls.push_back(g.wallS);
        wall = g.wallS;
        cycles = static_cast<double>(g.simCycles);
    } else {
        CellRefs refs = cellRefsOrDie(opt);
        unsigned workers = workloadWorkers(opt.workload);
        std::vector<std::vector<double>> cell_walls;
        for (unsigned i = 0; i < passes; ++i) {
            Pass p = runPass(cells, Mode::kPlain, workers, nullptr, -1);
            setupRound();
            checkPass(refs, cells, p, report);
            report.passWalls.push_back(p.wallS);
            cell_walls.push_back(p.cellWalls());
            SimCounts counts;
            for (const CellRun &c : p.cells)
                counts.add(c.counts);
            cycles = static_cast<double>(counts.cycles);
        }
        // One worker runs the cells back to back, so the sum of the
        // cells' walls is a pass's wall. The host runs both slower and
        // faster for seconds at a time: each cell's median pass drops
        // either kind of outlier.
        wall = sumOverCells(cell_walls, median);
    }

    std::map<std::string, double> v;
    v["wall_s"] = wall;
    v["sim_cycles_per_s"] = frac(cycles, wall);
    // Each set-up process reports a cell's fastest build, dropping
    // first-touch costs; take the median over the processes.
    v["setup_s"] = sumOverCells(setups, median);
    v["peak_rss_mb"] = peakRssMb();
    v["pass_frac"] = 1.0 - frac(static_cast<double>(report.failed),
                                static_cast<double>(report.attempted));
    report.metrics = emit(endToEndMetrics(), v);
}

/** Traced run: untraced, traced and oracle-off passes. */
void
traced(const RunOptions &opt, const std::vector<Cell> &cells,
       RunReport &report)
{
    unsigned workers = workloadWorkers(opt.workload);
    SpanLog spans;

    // Untraced reference pass: wall time, per-cell walls, digests.
    std::vector<double> plain_walls;
    double plain_wall = 0.0;
    CellRefs plain_digests;
    bh::Json grid_doc;
    if (opt.workload == Workload::kGrid4ch) {
        GridPass g = runGridPass();
        checkGridReport(opt.refDir, g.doc, cells, report);
        plain_walls = g.cellWalls;
        plain_wall = g.wallS;
        grid_doc = std::move(g.doc);
    } else {
        CellRefs refs = cellRefsOrDie(opt);
        Pass p = runPass(cells, Mode::kPlain, workers, nullptr, -1);
        checkPass(refs, cells, p, report);
        plain_walls = p.cellWalls();
        plain_wall = p.wallS;
        plain_digests = digestsOf(cells, p);
    }

    // Traced pass; its results must equal the untraced pass's.
    int root = spans.begin(std::string("workload:") +
                           workloadName(opt.workload), -1);
    Pass tp = runPass(cells, Mode::kTraced, workers, &spans, root);
    spans.end(root);
    if (opt.workload == Workload::kGrid4ch) {
        const bh::Json *got_cells = grid_doc.find("cells");
        for (std::size_t i = 0; i < cells.size(); ++i) {
            ++report.attempted;
            const bh::Json *want =
                got_cells ? got_cells->find(std::to_string(i)) : nullptr;
            bool same = tp.cells[i].ok && want &&
                fig5Payload(cells[i], tp.cells[i].result).dump() ==
                    want->dump();
            if (!same) {
                ++report.failed;
                report.problems.push_back("traced grid4ch cell " +
                                          cells[i].label() +
                                          " differs from the untraced run");
            }
        }
    } else {
        checkPass(plain_digests, cells, tp, report);
    }

    Pass np = runPass(cells, Mode::kNoOracle, workers, nullptr, -1);

    // Aggregate the traced pass.
    LayerCalls calls;
    SimCounts counts;
    std::map<std::string, LayerCalls> by_mech;
    bh::RunResult sim;  // summed simulated counters
    double run_s = 0.0, build_s = 0.0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const CellRun &c = tp.cells[i];
        calls.add(c.calls);
        counts.add(c.counts);
        by_mech[cells[i].cfg.mechanism].add(c.calls);
        run_s += c.runS;
        build_s += c.buildS;
        sim.demandActs += c.result.demandActs;
        sim.blockedActs += c.result.blockedActs;
        sim.victimRefreshes += c.result.victimRefreshes;
        sim.rowHits += c.result.rowHits;
        sim.rowMisses += c.result.rowMisses;
        sim.rowConflicts += c.result.rowConflicts;
    }
    double mitig_ns = calls.mitigNs();
    double next_ns = calls.next.estNs();
    double self_s = run_s - (mitig_ns + next_ns) * 1e-9;

    std::map<std::string, double> v;
    v["sim.run_self_s"] = self_s;
    v["sim.ns_per_cycle"] = frac(self_s * 1e9,
                                 static_cast<double>(counts.cycles));
    v["sim.skip_frac"] = frac(static_cast<double>(counts.skipped),
                              static_cast<double>(counts.cycles));
    v["sim.chunk_frac"] = frac(static_cast<double>(counts.chunked),
                               static_cast<double>(counts.cycles));
    v["sim.build_ms"] = frac(build_s * 1e3,
                             static_cast<double>(cells.size()));
    v["bench.busy_frac"] = frac(sum(plain_walls), workers * plain_wall);
    v["bench.cell_s_p50"] = median(plain_walls);
    v["bench.cell_s_max"] = plain_walls.empty()
        ? 0.0 : *std::max_element(plain_walls.begin(), plain_walls.end());
    v["workloads.next_calls"] = static_cast<double>(calls.next.calls);
    v["workloads.next_ns"] = next_ns;
    v["mitig.safe_calls"] = static_cast<double>(calls.safe.calls);
    v["mitig.safe_ns"] = calls.safe.estNs();
    v["mitig.act_calls"] = static_cast<double>(calls.act.calls);
    v["mitig.act_ns"] = calls.act.estNs();
    v["mitig.tick_calls"] = static_cast<double>(calls.tick.calls);
    v["mitig.tick_ns"] = calls.tick.estNs();
    v["mitig.share"] = frac(mitig_ns * 1e-9, run_s);
    for (const std::string &m : metricMechanisms()) {
        v["mitig." + m + ".act_ns"] = 0.0;
        v["mitig." + m + ".safe_ns"] = 0.0;
    }
    for (const auto &kv : by_mech) {
        std::string m = kv.first;
        std::replace(m.begin(), m.end(), '+', '-');
        v["mitig." + m + ".act_ns"] = kv.second.act.estNs();
        v["mitig." + m + ".safe_ns"] = kv.second.safe.estNs();
    }
    v["analysis.oracle_share"] = 1.0 - frac(sum(np.cellWalls()),
                                            sum(plain_walls));
    auto demand = static_cast<double>(sim.demandActs);
    auto blocked = static_cast<double>(sim.blockedActs);
    v["mem.demand_acts"] = demand;
    v["mem.blocked_queries"] = blocked;
    v["mem.blocked_frac"] = frac(blocked, blocked + demand);
    v["mem.row_hit_frac"] = frac(
        static_cast<double>(sim.rowHits),
        static_cast<double>(sim.rowHits + sim.rowMisses + sim.rowConflicts));
    v["mem.victim_refreshes"] = static_cast<double>(sim.victimRefreshes);
    v["mem.quota_rejects"] = static_cast<double>(counts.quotaRejects);
    v["mem.host_ns_per_act"] = frac(sum(plain_walls) * 1e9, demand);
    v["cache.llc_accesses"] =
        static_cast<double>(counts.llcHits + counts.llcMisses);
    v["cache.llc_hit_frac"] = frac(
        static_cast<double>(counts.llcHits),
        static_cast<double>(counts.llcHits + counts.llcMisses));
    v["core.retired"] = static_cast<double>(counts.retired);
    v["core.stall_frac"] = frac(static_cast<double>(counts.stallCycles),
                                static_cast<double>(counts.coreCycles));
    v["dram.bus_busy_frac"] = frac(static_cast<double>(counts.busBusy),
                                   static_cast<double>(counts.busCycles));
    v["trace.overhead_frac"] = frac(sum(tp.cellWalls()),
                                    sum(plain_walls)) - 1.0;
    report.metrics = emit(perLayerMetrics(), v);

    if (!opt.spansPath.empty())
        bh::atomicWriteFileOrDie(opt.spansPath, spans.chromeJson());
}

} // namespace

std::string
refPath(const std::string &ref_dir, Workload w)
{
    if (w == Workload::kGrid4ch)
        return ref_dir + "/grid4ch_BENCH_fig5.json";
    return ref_dir + "/" + workloadName(w) + ".json";
}

bool
loadCellRefs(const std::string &ref_dir, Workload w, std::uint64_t seed,
             CellRefs &out, std::string &err)
{
    std::string path = refPath(ref_dir, w);
    std::string text;
    if (!bh::readFile(path, text, err))
        return false;
    bh::Json doc;
    if (!bh::Json::parse(text, doc, &err)) {
        err = path + ": " + err;
        return false;
    }
    std::string variant = std::to_string(seed % kVariants);
    const bh::Json *variants = doc.find("variants");
    const bh::Json *cells = variants ? variants->find(variant) : nullptr;
    if (!cells) {
        err = path + ": no references for variant " + variant;
        return false;
    }
    out.clear();
    for (const auto &kv : cells->objectItems())
        out[kv.first] = kv.second.asString();
    return true;
}

void
checkCell(const CellRefs &refs, const std::string &label,
          const std::string &digest, RunReport &report)
{
    ++report.attempted;
    auto it = refs.find(label);
    if (it != refs.end() && it->second == digest)
        return;
    ++report.failed;
    report.problems.push_back(
        label + ": digest " + digest + ", expected " +
        (it == refs.end() ? std::string("none recorded") : it->second));
}

std::vector<double>
setupMinimums(Workload w, std::uint64_t seed, unsigned passes)
{
    std::vector<Cell> cells = workloadCells(w, seed);
    std::vector<double> best(cells.size(), 0.0);
    for (unsigned p = 0; p < passes; ++p) {
        for (std::size_t i = 0; i < cells.size(); ++i) {
            double t0 = nowS();
            auto sys = bh::buildSystem(cells[i].cfg, cells[i].mix);
            double dt = nowS() - t0;
            if (p == 0 || dt < best[i])
                best[i] = dt;
        }
    }
    return best;
}

RunReport
runWorkload(const RunOptions &opt)
{
    RunReport report;
    std::vector<Cell> cells = workloadCells(opt.workload, opt.seed);
    if (opt.trace)
        traced(opt, cells, report);
    else
        endToEnd(opt, cells, report);
    return report;
}

void
recordReferences(const std::string &dir)
{
    bh::Runner runner;
    for (Workload w : {Workload::kBenign, Workload::kAttack}) {
        std::vector<Cell> all;
        for (unsigned v = 0; v < kVariants; ++v)
            for (Cell &c : workloadCells(w, v))
                all.push_back(std::move(c));
        std::vector<std::string> digests = runner.map<std::string>(
            all.size(), [&](std::size_t i) {
                return resultDigest(bh::runExperiment(all[i].cfg,
                                                      all[i].mix));
            });
        bh::Json variants = bh::Json::object();
        std::size_t next = 0;
        for (unsigned v = 0; v < kVariants; ++v) {
            bh::Json cells = bh::Json::object();
            for (const Cell &c : workloadCells(w, v))
                cells[c.label()] = digests[next++];
            variants[std::to_string(v)] = std::move(cells);
        }
        bh::Json doc = bh::Json::object();
        doc["workload"] = workloadName(w);
        doc["variants"] = std::move(variants);
        bh::atomicWriteFileOrDie(refPath(dir, w), doc.dump(2) + "\n");
    }

    const bh::BenchInfo *info = bh::findBench("fig5");
    if (!info)
        bh::fatal("perfbench: experiment fig5 is not registered");
    bh::BenchContext ctx = gridContext();
    ctx.runner = &runner;
    bh::runBench(*info, ctx);
    bh::atomicWriteFileOrDie(refPath(dir, Workload::kGrid4ch),
                             ctx.result.dump(2) + "\n");
}

} // namespace perfbench
