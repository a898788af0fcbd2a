/**
 * @file
 * idyll_bench_diff — compare two BENCH_*.json perf artifacts and exit
 * nonzero when a metric regresses past its threshold. The CI
 * perf-trajectory job runs this against the committed baselines under
 * bench/baselines/; run it locally the same way before regenerating a
 * baseline.
 *
 *   idyll_bench_diff bench/baselines/BENCH_serve.json fresh.json \
 *     --default-threshold 15 --skip hostSeconds --skip eventsPerSec
 *   idyll_bench_diff base.json cur.json --threshold eventsPerSec=30
 *
 * Conversion mode adapts google-benchmark JSON output into the BENCH
 * schema so micro-benchmarks ride the same diff path:
 *
 *   idyll_bench_diff --from-gbench BM_EventQueuePingPong pingpong.json
 *
 * Exit codes: 0 pass, 1 regression/missing metric, 2 usage or I/O.
 */

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/bench_compare.hh"

namespace
{

const char *kUsage =
    "usage: idyll_bench_diff BASELINE.json CURRENT.json\n"
    "                        [--default-threshold PCT]\n"
    "                        [--threshold NAME=PCT]... [--skip NAME]...\n"
    "       idyll_bench_diff --from-gbench PREFIX GBENCH.json\n"
    "  --default-threshold PCT  allowed change for unlisted metrics\n"
    "                           (default 10)\n"
    "  --threshold NAME=PCT     per-metric override (repeatable)\n"
    "  --skip NAME              ignore a metric entirely (repeatable)\n"
    "  --from-gbench PREFIX     convert google-benchmark JSON (best\n"
    "                           repetition matching PREFIX) to a BENCH\n"
    "                           artifact on stdout\n"
    "exit: 0 pass, 1 regression or missing metric, 2 usage/I-O\n";

std::optional<std::string>
readFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        return std::nullopt;
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace idyll;

    const std::vector<std::string> args(argv + 1, argv + argc);
    DiffOptions opt;
    std::vector<std::string> files;
    std::string gbenchPrefix;

    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        auto value = [&](const char *flag) -> std::string {
            if (i + 1 >= args.size()) {
                std::cerr << "error: " << flag << " needs a value\n"
                          << kUsage;
                std::exit(2);
            }
            return args[++i];
        };
        if (arg == "--help") {
            std::cout << kUsage;
            return 0;
        } else if (arg == "--default-threshold") {
            opt.defaultThresholdPct =
                std::atof(value("--default-threshold").c_str());
            if (opt.defaultThresholdPct <= 0.0) {
                std::cerr << "error: --default-threshold needs a "
                             "positive percent\n";
                return 2;
            }
        } else if (arg == "--threshold") {
            const std::string spec = value("--threshold");
            const auto eq = spec.find('=');
            if (eq == std::string::npos || eq == 0) {
                std::cerr << "error: --threshold needs NAME=PCT\n";
                return 2;
            }
            const double pct = std::atof(spec.substr(eq + 1).c_str());
            if (pct <= 0.0) {
                std::cerr << "error: --threshold needs a positive "
                             "percent\n";
                return 2;
            }
            opt.thresholds[spec.substr(0, eq)] = pct;
        } else if (arg == "--skip") {
            opt.skip.insert(value("--skip"));
        } else if (arg == "--from-gbench") {
            gbenchPrefix = value("--from-gbench");
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "error: unknown argument '" << arg << "'\n"
                      << kUsage;
            return 2;
        } else {
            files.push_back(arg);
        }
    }

    if (!gbenchPrefix.empty()) {
        if (files.size() != 1) {
            std::cerr << "error: --from-gbench needs exactly one "
                         "input file\n"
                      << kUsage;
            return 2;
        }
        const auto text = readFile(files[0]);
        if (!text) {
            std::cerr << "error: cannot read " << files[0] << "\n";
            return 2;
        }
        const auto metrics = parseGoogleBenchmark(*text, gbenchPrefix);
        if (!metrics) {
            std::cerr << "error: no benchmark matching '"
                      << gbenchPrefix << "' in " << files[0] << "\n";
            return 2;
        }
        std::cout << benchMetricsToJson(*metrics) << "\n";
        return 0;
    }

    if (files.size() != 2) {
        std::cerr << "error: need BASELINE and CURRENT files\n"
                  << kUsage;
        return 2;
    }
    const auto baseText = readFile(files[0]);
    if (!baseText) {
        std::cerr << "error: cannot read " << files[0] << "\n";
        return 2;
    }
    const auto curText = readFile(files[1]);
    if (!curText) {
        std::cerr << "error: cannot read " << files[1] << "\n";
        return 2;
    }
    const auto baseline = parseBenchJson(*baseText);
    if (!baseline) {
        std::cerr << "error: " << files[0]
                  << " is not a BENCH artifact (no metrics object)\n";
        return 2;
    }
    const auto current = parseBenchJson(*curText);
    if (!current) {
        std::cerr << "error: " << files[1]
                  << " is not a BENCH artifact (no metrics object)\n";
        return 2;
    }
    if (baseline->bench != current->bench) {
        std::cerr << "error: artifact kinds differ ('"
                  << baseline->bench << "' vs '" << current->bench
                  << "')\n";
        return 2;
    }

    const DiffReport report =
        diffBenchMetrics(*baseline, *current, opt);
    std::cout << "bench: " << baseline->bench << " (schema "
              << baseline->schema << " -> " << current->schema
              << ")\n"
              << report.summary();
    return report.breached ? 1 : 0;
}
