/**
 * @file
 * Self-tests of the simulator benchmark: metric naming, the correctness
 * gate, seed handling, and the transparency of the tracing decorators.
 * Run with `ctest --test-dir .bench_build` after building the
 * perfbench project (see perfbench/CMakeLists.txt).
 */

#include <cstdio>
#include <regex>
#include <set>
#include <string>
#include <vector>

#include "cells.hh"
#include "common/fsio.hh"
#include "common/json.hh"
#include "workload.hh"

namespace
{

int failures = 0;

#define CHECK(cond)                                                         \
    do {                                                                    \
        if (!(cond)) {                                                      \
            std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);     \
            ++failures;                                                     \
        }                                                                   \
    } while (0)

using namespace perfbench;

void
metricNamesAreWellFormed()
{
    const std::regex name_re("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
    const std::regex unit_re("[A-Za-z0-9_/%.-]{1,16}");
    std::set<std::string> seen;
    for (const auto *defs : {&endToEndMetrics(), &perLayerMetrics()})
        for (const MetricDef &d : *defs) {
            CHECK(std::regex_match(d.name, name_re));
            CHECK(std::regex_match(d.unit, unit_re));
            CHECK(seen.insert(d.name).second);
        }
    CHECK(perLayerMetrics().size() <= 128);
}

/** The metric list of one BENCHMARK.json section, as name -> unit. */
std::vector<std::pair<std::string, std::string>>
listedMetrics(const bh::Json &doc, const char *section)
{
    std::vector<std::pair<std::string, std::string>> out;
    const bh::Json *list = doc.find(section);
    for (std::size_t i = 0; list && i < list->size(); ++i)
        out.emplace_back(list->at(i).find("name")->asString(),
                         list->at(i).find("unit")->asString());
    return out;
}

void
benchmarkJsonListsEveryMetric()
{
    std::string text, err;
    bh::Json doc;
    CHECK(bh::readFile(PERFBENCH_BENCHMARK_JSON, text, err));
    CHECK(bh::Json::parse(text, doc, &err));
    for (auto [section, defs] :
         {std::pair{"end_to_end", &endToEndMetrics()},
          std::pair{"per_layer", &perLayerMetrics()}}) {
        std::vector<std::pair<std::string, std::string>> want;
        for (const MetricDef &d : *defs)
            want.emplace_back(d.name, d.unit);
        CHECK(listedMetrics(doc, section) == want);
    }
}

void
perturbedReferenceFails()
{
    CellRefs refs;
    std::string err;
    CHECK(loadCellRefs(PERFBENCH_REF_DIR, Workload::kBenign, 1, refs, err));
    std::vector<Cell> cells = workloadCells(Workload::kBenign, 1);
    CHECK(refs.size() == cells.size());

    // The recorded digest of a freshly simulated cell passes ...
    const Cell &cell = cells.front();
    std::string digest =
        resultDigest(bh::runExperiment(cell.cfg, cell.mix));
    RunReport ok;
    checkCell(refs, cell.label(), digest, ok);
    CHECK(ok.attempted == 1 && ok.failed == 0);

    // ... a perturbed one fails, and so does a cell with no reference.
    CellRefs perturbed = refs;
    std::string &d = perturbed[cell.label()];
    d[0] = d[0] == '0' ? '1' : '0';
    RunReport bad;
    checkCell(perturbed, cell.label(), digest, bad);
    checkCell(refs, "no-such-mix/Baseline", digest, bad);
    CHECK(bad.attempted == 2 && bad.failed == 2);
    CHECK(bad.problems.size() == 2);
}

/** Everything a cell's inputs depend on, as one comparable string. */
std::string
inputsOf(const std::vector<Cell> &cells)
{
    std::string s;
    for (const Cell &c : cells) {
        s += c.label() + "|" + std::to_string(c.cfg.seed) + "|" +
            std::to_string(c.cfg.channels) + "|";
        for (const std::string &app : c.mix.apps)
            s += app + ",";
        s += "\n";
    }
    return s;
}

void
seedSelectsInputs()
{
    for (Workload w : {Workload::kBenign, Workload::kAttack}) {
        CHECK(inputsOf(workloadCells(w, 1)) == inputsOf(workloadCells(w, 1)));
        CHECK(inputsOf(workloadCells(w, 1)) != inputsOf(workloadCells(w, 2)));
        CHECK(inputsOf(workloadCells(w, 3)) != inputsOf(workloadCells(w, 4)));
    }
    CHECK(inputsOf(workloadCells(Workload::kGrid4ch, 1)) ==
          inputsOf(workloadCells(Workload::kGrid4ch, 2)));
    CHECK(workloadCells(Workload::kGrid4ch, 1).size() == 22);
}

/** Short cells that exercise every mechanism any workload runs. */
std::vector<Cell>
transparencyCells()
{
    bh::BenchContext ctx;
    ctx.scale = 0.1;
    bh::BenchContext ctx4 = ctx;
    ctx4.channels = 4;
    std::vector<std::string> mechs = {"Baseline"};
    for (const std::string &m : bh::comparisonMechanisms())
        mechs.push_back(m);
    std::vector<Cell> cells;
    for (const std::string &mech : mechs) {
        Cell sec;
        sec.cfg = bh::securityConfig(ctx, mech, 1);
        sec.mix = bh::securityMix(bh::attackPatternApp("double-sided"),
                                  "sec-double-sided");
        cells.push_back(sec);
        Cell grid;
        grid.cfg = bh::benchConfig(ctx4, mech);
        grid.mix = bh::makeAttackMixes(1, 42).front();
        cells.push_back(grid);
    }
    return cells;
}

void
decoratorsAreTransparent()
{
    for (const Cell &cell : transparencyCells()) {
        bh::RunResult plain = bh::runExperiment(cell.cfg, cell.mix);
        LayerCalls calls;
        auto sys = buildTraced(cell, calls);
        sys->run(cell.cfg.warmupCycles);
        sys->startMeasurement();
        sys->run(cell.cfg.runCycles);
        bh::RunResult traced = collectResult(*sys, cell);
        bool same = resultDigest(plain) == resultDigest(traced) &&
            plain.stats.dump() == traced.stats.dump();
        if (!same)
            std::printf("  traced != untraced for %s (%u channels)\n",
                        cell.label().c_str(), cell.cfg.channels);
        CHECK(same);
        CHECK(calls.act.calls > 0);
        CHECK(calls.tick.calls > 0);
        CHECK(calls.next.calls > 0);
    }
}

} // namespace

int
main()
{
    metricNamesAreWellFormed();
    benchmarkJsonListsEveryMetric();
    perturbedReferenceFails();
    seedSelectsInputs();
    decoratorsAreTransparent();
    std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "PASSED",
                failures);
    return failures ? 1 : 0;
}
