/**
 * @file
 * bh_perfbench: the simulator benchmark program.
 *
 *   bh_perfbench --workload benign|attack|grid4ch --seed N --seconds S
 *                --trace 0|1 [--ref DIR] [--spans FILE]
 *   bh_perfbench --workload W --seed N --setup-only P
 *   bh_perfbench --record-refs DIR
 *
 * A run prints one line per metric (name, value, unit), one line per
 * failed correctness check, and last a JSON object with the keys
 * correct, attempted, failed and metrics. `--trace 0` reports the
 * end-to-end metrics, `--trace 1` the per-layer ones. `--setup-only`
 * prints, as one JSON array, each cell's fastest build over P
 * construct-only passes; an end-to-end run measures set-up that way in
 * child processes. `--record-refs` rewrites the reference files the
 * correctness gate compares against; do that only for a change meant
 * to alter simulated results.
 */

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/json.hh"
#include "workload.hh"

namespace
{

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "bh_perfbench: %s\n"
                 "usage: bh_perfbench --workload benign|attack|grid4ch "
                 "--seed N --seconds S --trace 0|1 [--ref DIR] "
                 "[--spans FILE]\n"
                 "       bh_perfbench --workload W --seed N --setup-only P\n"
                 "       bh_perfbench --record-refs DIR\n",
                 why);
    std::exit(2);
}

std::uint64_t
parseUnsigned(const char *flag, const char *text)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (errno != 0 || end == text || *end != '\0' || text[0] == '-')
        usage((std::string(flag) + " needs a non-negative integer").c_str());
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::RunOptions opt;
    opt.refDir = "perfbench/ref";
    bool have_workload = false;
    std::string record_dir;
    std::uint64_t setup_only = 0;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value after " + arg).c_str());
        const char *val = argv[++i];
        if (arg == "--workload") {
            if (!perfbench::parseWorkload(val, opt.workload))
                usage("unknown workload");
            have_workload = true;
        } else if (arg == "--seed") {
            opt.seed = parseUnsigned("--seed", val);
        } else if (arg == "--seconds") {
            opt.seconds = static_cast<double>(
                parseUnsigned("--seconds", val));
        } else if (arg == "--trace") {
            std::uint64_t t = parseUnsigned("--trace", val);
            if (t > 1)
                usage("--trace takes 0 or 1");
            opt.trace = t == 1;
        } else if (arg == "--ref") {
            opt.refDir = val;
        } else if (arg == "--spans") {
            opt.spansPath = val;
        } else if (arg == "--record-refs") {
            record_dir = val;
        } else if (arg == "--setup-only") {
            setup_only = parseUnsigned("--setup-only", val);
        } else {
            usage(("unknown option " + arg).c_str());
        }
    }

    if (!record_dir.empty()) {
        perfbench::recordReferences(record_dir);
        return 0;
    }
    if (!have_workload)
        usage("--workload is required");
    if (setup_only > 0) {
        bh::Json times = bh::Json::array();
        for (double t : perfbench::setupMinimums(
                 opt.workload, opt.seed, static_cast<unsigned>(setup_only)))
            times.push(t);
        std::printf("%s\n", times.dump().c_str());
        return 0;
    }

    perfbench::RunReport report = perfbench::runWorkload(opt);
    for (const std::string &p : report.problems)
        std::printf("check failed: %s\n", p.c_str());
    std::printf("passes:");
    for (double w : report.passWalls)
        std::printf(" %.3fs", w);
    std::printf("\n");
    bh::Json metrics = bh::Json::object();
    for (const perfbench::Metric &m : report.metrics) {
        bh::Json entry = bh::Json::object();
        // Counts print as integers; every other value keeps all its
        // digits (Json writes the shortest exact form).
        bool whole = m.unit == "count" && m.value >= 0.0 && m.value < 9e15;
        entry["value"] = whole ? bh::Json(static_cast<std::int64_t>(m.value))
                               : bh::Json(m.value);
        entry["unit"] = m.unit;
        std::printf("metric %-32s %s %s\n", m.name.c_str(),
                    entry["value"].dump().c_str(), m.unit.c_str());
        metrics[m.name] = std::move(entry);
    }
    std::printf("fail_frac = %s (%llu of %llu checks failed)\n",
                bh::Json::formatDouble(
                    report.attempted
                        ? static_cast<double>(report.failed) /
                              static_cast<double>(report.attempted)
                        : 0.0).c_str(),
                static_cast<unsigned long long>(report.failed),
                static_cast<unsigned long long>(report.attempted));

    bh::Json out = bh::Json::object();
    out["correct"] = report.failed == 0 && report.attempted > 0;
    out["attempted"] = report.attempted;
    out["failed"] = report.failed;
    out["metrics"] = std::move(metrics);
    std::printf("%s\n", out.dump().c_str());
    return 0;
}
