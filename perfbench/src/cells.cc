#include "cells.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/rng.hh"
#include "report/report.hh"
#include "workloads/fuzz_patterns.hh"

namespace perfbench
{

namespace
{

/** Context of benign or attack cells at the given fidelity. */
bh::BenchContext
scaledContext(double scale)
{
    bh::BenchContext ctx;
    ctx.scale = scale;
    return ctx;
}

std::vector<Cell>
benignCells(unsigned variant)
{
    // Every pass runs the whole application catalog (plus its first
    // two apps again, to fill four 8-core mixes), split into the same
    // four mixes for every seed: which apps share a mix changes the
    // simulated work by up to 2x (retired instructions), so the seed
    // only reorders each mix's core slots and seeds its trace streams.
    std::vector<std::string> apps;
    for (const bh::AppSpec &app : bh::appCatalog())
        apps.push_back(app.params.name);
    const unsigned threads = 8;
    for (std::size_t i = 0; apps.size() % threads != 0; ++i)
        apps.push_back(apps[i]);
    auto shuffle = [](bh::Rng &rng, std::vector<std::string>::iterator first,
                      std::size_t n) {
        for (std::size_t i = n; i > 1; --i)
            std::swap(first[i - 1], first[rng.below(i)]);
    };
    bh::Rng partition(1000);
    shuffle(partition, apps.begin(), apps.size());
    bh::Rng slots(1000 + variant);
    for (std::size_t m = 0; m * threads < apps.size(); ++m)
        shuffle(slots, apps.begin() + m * threads, threads);

    // Benign cells run at the experiments' default fidelity.
    bh::BenchContext ctx = scaledContext(1.0);
    std::vector<Cell> cells;
    for (std::size_t m = 0; m * threads < apps.size(); ++m) {
        bh::MixSpec mix;
        mix.name = bh::strfmt("benign-%02zu", m);
        mix.apps.assign(apps.begin() + m * threads,
                        apps.begin() + (m + 1) * threads);
        for (const char *mech : {"Baseline", "BlockHammer"}) {
            Cell c;
            c.cfg = bh::benchConfig(ctx, mech);
            c.cfg.seed = 1 + variant;
            c.mix = mix;
            cells.push_back(std::move(c));
        }
    }
    return cells;
}

std::vector<Cell>
attackCells(unsigned variant)
{
    // Every catalog pattern runs in every pass (patterns differ in cost
    // by tens of percent); the seed drives the co-running benign
    // streams, the probabilistic mechanisms and the patterns' own
    // lap randomness. Scale 0.5 (900k cycles, just over one 0.25 ms
    // refresh window) keeps a pass near 13 s, so a run can take each
    // cell's median of three passes; one 27 s pass at scale 1 moved
    // with the host by 20-30% between runs.
    bh::BenchContext ctx = scaledContext(0.5);
    std::vector<Cell> cells;
    for (const bh::AttackPatternSpec &pattern : bh::attackPatternCatalog()) {
        for (const std::string &mech : attackMechanisms()) {
            Cell c;
            c.cfg = bh::securityConfig(ctx, mech, 1);
            c.cfg.seed = 1 + variant;
            c.mix = bh::securityMix(bh::attackPatternApp(pattern.name),
                                    "sec-" + pattern.name);
            cells.push_back(std::move(c));
        }
    }
    return cells;
}

/** fig5's grid, cell by cell (see bench/fig5_multiprog.cc). */
std::vector<Cell>
gridCells()
{
    bh::BenchContext ctx = gridContext();
    unsigned n_mixes = ctx.scaled(3);
    std::vector<bh::MixSpec> mixes = bh::makeBenignMixes(n_mixes, 42);
    for (const bh::MixSpec &mix : bh::makeAttackMixes(n_mixes, 42))
        mixes.push_back(mix);
    std::vector<Cell> cells;
    for (const bh::MixSpec &mix : mixes) {
        std::vector<std::string> mechs = {"Baseline"};
        for (const std::string &m : bh::comparisonMechanisms())
            mechs.push_back(m);
        for (const std::string &mech : mechs) {
            Cell c;
            c.cfg = bh::benchConfig(ctx, mech);
            c.mix = mix;
            cells.push_back(std::move(c));
        }
    }
    return cells;
}

/** Outstanding-request budget buildSystem gives an attacking slot. */
unsigned
attackerOutstanding(const bh::ExperimentConfig &config,
                    const std::string &app)
{
    unsigned outstanding = 2 * config.attack.numBanks;
    if (app.rfind(bh::kFuzzPatternPrefix, 0) == 0) {
        bh::AttackPatternSpec spec;
        if (bh::fuzzSpecForApp(app, spec))
            outstanding = spec.maxOutstanding();
    } else if (app != bh::kAttackAppName) {
        const bh::AttackPatternSpec *spec = bh::findAttackPattern(
            app.substr(bh::kAttackPatternPrefix.size()));
        if (spec)
            outstanding = spec->maxOutstanding();
    }
    return outstanding;
}

} // namespace

bool
parseWorkload(const std::string &name, Workload &out)
{
    for (Workload w : {Workload::kBenign, Workload::kAttack,
                       Workload::kGrid4ch}) {
        if (name == workloadName(w)) {
            out = w;
            return true;
        }
    }
    return false;
}

const char *
workloadName(Workload w)
{
    switch (w) {
      case Workload::kBenign:
        return "benign";
      case Workload::kAttack:
        return "attack";
      case Workload::kGrid4ch:
        return "grid4ch";
    }
    return "?";
}

const std::vector<std::string> &
attackMechanisms()
{
    static const std::vector<std::string> mechs = {
        "BlockHammer", "Graphene", "PARA", "BreakHammer+Graphene"};
    return mechs;
}

std::string
Cell::label() const
{
    return mix.name + "/" + cfg.mechanism;
}

bh::BenchContext
gridContext()
{
    bh::BenchContext ctx;
    ctx.scale = 0.5;
    ctx.channels = 4;
    return ctx;
}

std::vector<Cell>
workloadCells(Workload w, std::uint64_t seed)
{
    unsigned variant = static_cast<unsigned>(seed % kVariants);
    switch (w) {
      case Workload::kBenign:
        return benignCells(variant);
      case Workload::kAttack:
        return attackCells(variant);
      case Workload::kGrid4ch:
        return gridCells();
    }
    return {};
}

unsigned
workloadWorkers(Workload w)
{
    return w == Workload::kGrid4ch ? 2 : 1;
}

bh::RunResult
collectResult(bh::System &system, const Cell &cell)
{
    const bh::ExperimentConfig &config = cell.cfg;
    bh::RunResult res;
    res.mechanism = config.mechanism;
    res.mixName = cell.mix.name;
    for (unsigned t = 0; t < config.threads; ++t) {
        res.ipc.push_back(system.ipc(t));
        res.isAttack.push_back(bh::isAttackApp(cell.mix.apps[t]));
    }
    res.energyJ = system.energy();
    bh::MemSystem &mem = system.mem();
    for (unsigned ch = 0; ch < mem.channels(); ++ch) {
        if (auto *hammer = mem.hammerObserver(ch)) {
            res.bitFlips += hammer->bitFlips().size();
            res.maxRowActs = std::max(res.maxRowActs,
                                      hammer->maxRowActivations());
        }
        if (auto *oracle = mem.securityOracle(ch)) {
            res.secMargin = std::max(res.secMargin, oracle->margin());
            res.secMaxWindowActs = std::max(res.secMaxWindowActs,
                                            oracle->maxWindowActs());
            res.secFirstViolation = std::min(res.secFirstViolation,
                                             oracle->firstViolationCycle());
            res.secViolatingRows += oracle->violatingRows();
        }
        auto &mc = mem.controller(ch);
        res.demandActs += mc.demandActivations();
        res.blockedActs += mc.blockedActQueries();
        res.victimRefreshes += mc.victimRefreshesDone();
        res.rowHits += mc.rowHits();
        res.rowMisses += mc.rowMisses();
        res.rowConflicts += mc.rowConflicts();

        mc.syncStats();
        mc.mitigation().syncStats();
        bh::Json lane = mc.stats.toJson();
        bh::Json mitig = mc.mitigation().stats.toJson();
        if (mitig.objectItems().size() > 0)
            lane["mitigation"] = mitig;
        res.stats["ch" + std::to_string(ch)] = lane;
    }
    return res;
}

std::string
resultDigest(const bh::RunResult &r)
{
    bh::Json doc = bh::Json::object();
    doc["mechanism"] = r.mechanism;
    doc["mix"] = r.mixName;
    bh::Json ipc = bh::Json::array();
    for (double v : r.ipc)
        ipc.push(v);
    doc["ipc"] = std::move(ipc);
    doc["energy_j"] = r.energyJ;
    doc["bit_flips"] = r.bitFlips;
    doc["max_row_acts"] = r.maxRowActs;
    doc["demand_acts"] = r.demandActs;
    doc["blocked_acts"] = r.blockedActs;
    doc["victim_refreshes"] = r.victimRefreshes;
    doc["row_hits"] = r.rowHits;
    doc["row_misses"] = r.rowMisses;
    doc["row_conflicts"] = r.rowConflicts;
    doc["sec_margin"] = r.secMargin;
    doc["sec_max_window_acts"] = r.secMaxWindowActs;
    doc["sec_first_violation"] = static_cast<std::int64_t>(
        r.secFirstViolation);
    doc["sec_violating_rows"] = r.secViolatingRows;
    doc["stats"] = r.stats;
    return bh::hex64(bh::fnv1a64(doc.dump()));
}

std::unique_ptr<bh::System>
buildTraced(const Cell &cell, LayerCalls &calls)
{
    const bh::ExperimentConfig &config = cell.cfg;
    const bh::MixSpec &mix = cell.mix;
    if (mix.apps.size() != config.threads)
        bh::fatal("mix '%s' has %zu apps for %u threads", mix.name.c_str(),
                  mix.apps.size(), config.threads);

    bh::SystemConfig sys_cfg;
    sys_cfg.threads = config.threads;
    sys_cfg.skip = config.skip;
    sys_cfg.mem.org = bh::DramOrg::paperConfig(config.channels);
    sys_cfg.mem.timings = config.timings();
    sys_cfg.mem.hammer.nRH = config.nRH;
    sys_cfg.mem.hammer.blastRadius = 1;
    sys_cfg.mem.enableHammerObserver = config.hammerObserver;
    sys_cfg.mem.enableSecurityOracle = config.securityOracle;
    sys_cfg.channelThreads = config.channelThreads;

    auto system = std::make_unique<bh::System>(
        sys_cfg, [&config, &calls](unsigned ch) {
            return std::make_unique<TracedMitigation>(
                bh::makeMitigation(config.mechanism,
                                   config.mitigationSettings(ch)),
                calls);
        });

    bh::AttackEnv env = config.attackEnv();
    for (unsigned slot = 0; slot < config.threads; ++slot) {
        auto trace = std::make_unique<TracedTrace>(
            bh::makeTrace(mix.apps[slot], slot, config.threads,
                          system->mem().mapper(), config.seed,
                          config.attack, &env),
            calls);
        if (bh::isAttackApp(mix.apps[slot])) {
            bh::CoreConfig attacker = sys_cfg.core;
            attacker.maxOutstandingMem =
                attackerOutstanding(config, mix.apps[slot]);
            system->setTrace(slot, std::move(trace), attacker);
        } else {
            system->setTrace(slot, std::move(trace));
        }
    }
    return system;
}

bh::Json
fig5Payload(const Cell &cell, const bh::RunResult &result)
{
    bh::MultiProgMetrics metrics =
        bh::metricsAgainstAlone(cell.cfg, cell.mix, result);
    bh::Json payload = bh::Json::object();
    payload["ws"] = metrics.weightedSpeedup;
    payload["hs"] = metrics.harmonicSpeedup;
    payload["ms"] = metrics.maxSlowdown;
    payload["energy_j"] = result.energyJ;
    payload["stats"] = result.stats;
    return payload;
}

} // namespace perfbench
