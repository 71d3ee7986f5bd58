#include "analysis/red_team.hh"

#include <algorithm>
#include <map>

#include "common/log.hh"
#include "common/rng.hh"

namespace bh
{

bool
strongerAttempt(const RedTeamAttempt &a, const RedTeamAttempt &b)
{
    if (a.margin != b.margin)
        return a.margin > b.margin;
    if (a.bitFlips != b.bitFlips)
        return a.bitFlips > b.bitFlips;
    if (a.maxWindowActs != b.maxWindowActs)
        return a.maxWindowActs > b.maxWindowActs;
    return a.serialized < b.serialized;
}

RedTeamResult
redTeamSearch(const RedTeamConfig &cfg)
{
    if (!cfg.base.securityOracle)
        fatal("redTeamSearch: the base config must enable the "
              "security oracle (there is no score without it)");
    if (cfg.base.threads != cfg.benignApps.size() + 1)
        fatal("redTeamSearch: %u threads for 1 attacker + %zu benign apps",
              cfg.base.threads, cfg.benignApps.size());
    if (cfg.population == 0 || cfg.generations == 0)
        fatal("redTeamSearch: population and generations must be positive");
    unsigned survivors =
        std::max(1u, std::min(cfg.survivors, cfg.population));

    Rng rng(cfg.seed);
    RedTeamResult result;
    std::map<std::string, RedTeamAttempt> memo;

    auto evaluate = [&](FuzzPatternParams params,
                        unsigned gen) -> RedTeamAttempt {
        // Stamp the chain seed as provenance before serializing: the
        // serialized string is the pattern's permanent identity and
        // must name the lineage it came from.
        params.seed = cfg.seed;
        std::string ser = serializeFuzzPattern(params);
        auto it = memo.find(ser);
        if (it != memo.end()) {
            ++result.memoHits;
            return it->second;
        }
        MixSpec mix = {};
        mix.name = "redteam";
        mix.apps.push_back(kFuzzPatternPrefix + ser);
        for (const auto &app : cfg.benignApps)
            mix.apps.push_back(app);
        RunResult res = runExperiment(cfg.base, mix);

        RedTeamAttempt at;
        at.params = params;
        at.serialized = ser;
        at.generation = gen;
        at.margin = res.secMargin;
        at.maxWindowActs = res.secMaxWindowActs;
        at.bitFlips = res.bitFlips;
        at.blockedActs = res.blockedActs;
        at.attackIpc = res.ipc.empty() ? 0.0 : res.ipc[0];
        ++result.evaluations;
        memo.emplace(ser, at);
        return at;
    };

    std::vector<RedTeamAttempt> pop;
    for (unsigned gen = 0; gen < cfg.generations; ++gen) {
        std::vector<FuzzPatternParams> cand;
        if (gen == 0) {
            for (unsigned i = 0; i < cfg.population; ++i)
                cand.push_back(sampleFuzzPattern(cfg.space, rng));
        } else {
            // Elitist refill: survivors carry over verbatim (memoized,
            // so they cost nothing to "re-evaluate"), the rest of the
            // population are their mutations, parents round-robin.
            std::sort(pop.begin(), pop.end(), strongerAttempt);
            for (unsigned s = 0; s < survivors; ++s)
                cand.push_back(pop[s].params);
            while (cand.size() < cfg.population) {
                const FuzzPatternParams &parent =
                    pop[(cand.size() - survivors) % survivors].params;
                cand.push_back(
                    mutateFuzzPattern(parent, cfg.space, rng));
            }
        }

        std::vector<RedTeamAttempt> evals;
        for (const auto &params : cand)
            evals.push_back(evaluate(params, gen));
        std::sort(evals.begin(), evals.end(), strongerAttempt);
        result.generationBest.push_back(evals.front());
        pop = std::move(evals);
    }

    result.best = result.generationBest.front();
    for (const auto &at : result.generationBest)
        if (strongerAttempt(at, result.best))
            result.best = at;
    return result;
}

} // namespace bh
