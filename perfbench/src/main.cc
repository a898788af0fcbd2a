/**
 * @file
 * idyll_perfbench: one simulation run of the host-performance
 * benchmark, measured and checked.
 *
 *   idyll_perfbench --app PR --scheme idyll --gpus 4 --scale 0.5
 *                   --seed 1 --slice-cycles 4000
 *                   --mode reference|sliced|traced [--corrupt-expect]
 *
 * Modes:
 *   reference  MultiGpuSystem::run(), the simulator's own drive; its
 *              results are what the other modes must reproduce.
 *   sliced     constructor + launch() (set-up: timed five times,
 *              four of the systems discarded; setups_s lists the
 *              times and setup_s is their median), then
 *              eventQueue().runUntil() in fixed simulated-cycle slices
 *              (each slice timed), then finish(). Tracing off.
 *   traced     the sliced drive with every trace category on and a
 *              LayerReplay sink attached; the buffered operations are
 *              replayed between slices, outside the drain timing.
 *
 * Prints one JSON object on stdout: host timings, the simulated
 * context (execTicks, the translation-state digest, a hash of the
 * results JSON with host fields stripped), the outcome of every
 * correctness check, and the build provenance. Exits 0 when the run
 * completed, even if a check failed ("ok": false); a run that throws
 * exits 1, and a panic aborts. perfbench/run.py aggregates the runs.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/cli.hh"
#include "harness/system.hh"
#include "layer_replay.hh"
#include "workloads/workload.hh"

namespace
{

using namespace idyll;
using Clock = std::chrono::steady_clock;

struct Options
{
    std::string app;
    std::string scheme;
    std::uint32_t gpus = 4;
    double scale = 1.0;
    std::uint64_t seed = 1;
    Tick sliceCycles = 0;
    std::string mode;
    bool corruptExpect = false;
};

const char *kUsage =
    "usage: idyll_perfbench --app NAME --scheme NAME --gpus N --scale F\n"
    "                       --seed N --slice-cycles N\n"
    "                       --mode reference|sliced|traced "
    "[--corrupt-expect]\n";

bool
parseArgs(int argc, char **argv, Options &o)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--corrupt-expect") {
            o.corruptExpect = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        const std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--app") {
            o.app = value;
        } else if (arg == "--scheme") {
            o.scheme = value;
        } else if (arg == "--mode") {
            o.mode = value;
        } else if (arg == "--gpus") {
            o.gpus = static_cast<std::uint32_t>(
                std::strtoul(value.c_str(), &end, 10));
        } else if (arg == "--scale") {
            o.scale = std::strtod(value.c_str(), &end);
        } else if (arg == "--seed") {
            o.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (arg == "--slice-cycles") {
            o.sliceCycles = std::strtoull(value.c_str(), &end, 10);
        } else {
            return false;
        }
        if (end && *end != '\0')
            return false;
    }
    return !o.app.empty() && !o.scheme.empty() && o.gpus > 0 &&
           o.scale > 0.0 && o.sliceCycles > 0 &&
           (o.mode == "reference" || o.mode == "sliced" ||
            o.mode == "traced");
}

std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
hex(std::uint64_t v)
{
    std::ostringstream os;
    os << "0x" << std::hex << std::setw(16) << std::setfill('0') << v;
    return os.str();
}

std::string
quoted(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            out += ' ';
        else
            out += c;
    }
    return out + "\"";
}

double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Results JSON without the host-side fields and the trace digest. */
std::string
simulatedJson(SimResults r)
{
    r.hostSeconds = 0.0;
    r.eventsExecuted = 0;
    r.eventsPerSec = 0.0;
    r.shardImbalancePct = 0.0;
    r.lookaheadStallPct = 0.0;
    r.shardTelemetryJson.clear();
    r.traceDigest.clear();
    return r.toJson();
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
provenanceJson(const SystemConfig &cfg, const Options &o)
{
#ifdef __OPTIMIZE__
    const bool optimized = true;
#else
    const bool optimized = false;
#endif
#ifdef NDEBUG
    const bool ndebug = true;
#else
    const bool ndebug = false;
#endif
    std::ostringstream cfgText;
    cfgText << schemeName(cfg) << "\n"
            << cfg.describe() << "irmb " << cfg.irmb.bases << "x"
            << cfg.irmb.offsetsPerBase << " dirBits " << cfg.directoryBits
            << " prepopulate " << static_cast<int>(cfg.prepopulate)
            << "\napp " << o.app << " scale " << o.scale << " slice "
            << o.sliceCycles;
    std::ostringstream os;
    os << "{\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
       << ",\"compiler\":" << quoted(PERFBENCH_COMPILER " (" __VERSION__ ")")
       << ",\"build_type\":" << quoted(PERFBENCH_BUILD_TYPE)
       << ",\"cxx_flags\":" << quoted(PERFBENCH_CXX_FLAGS)
       << ",\"optimized\":" << (optimized ? "true" : "false")
       << ",\"ndebug\":" << (ndebug ? "true" : "false")
       << ",\"trace_compiled\":" << (IDYLL_TRACE_ENABLED ? "true" : "false")
       << ",\"config_hash\":" << quoted(hex(fnv1a(cfgText.str())))
       << ",\"seed\":" << o.seed << "}";
    return os.str();
}

void
writeSpan(std::ostream &os, const char *name, const perfbench::Span &s)
{
    os << quoted(name) << ":{\"calls\":" << s.calls
       << ",\"seconds\":" << s.seconds << "}";
}

int
runOne(const Options &o)
{
    CliParse parsed = parseCli({"--app", o.app, "--scheme", o.scheme,
                                "--gpus", std::to_string(o.gpus)});
    if (!parsed.ok()) {
        std::cerr << "error: " << parsed.error << "\n";
        return 2;
    }
    SystemConfig cfg = parsed.options->config;
    cfg.seed = o.seed;
    // Host timing is the benchmark's job; keep every optional
    // observer off unless this is the traced run.
    cfg.hostStats = false;
    cfg.progressSecs = 0.0;
    cfg.latency.enabled = false;
    cfg.sampler.everyCycles = 0;
    cfg.trace.jsonlPath.clear();
    const bool traced = o.mode == "traced";
    cfg.trace.categories = traced ? "all" : "";

    const Workload workload = Workload::byName(o.app, o.scale);
    std::vector<std::string> failures;

    SimResults results;
    std::uint64_t events = 0;
    std::uint64_t digest = 0;
    double setupS = 0.0, drainS = 0.0, finishS = 0.0;
    std::vector<double> sliceMs, setups;
    std::unique_ptr<perfbench::LayerReplay> replay;

    if (o.mode == "reference") {
        const auto t0 = Clock::now();
        MultiGpuSystem system(cfg);
        results = system.run(workload);
        drainS = seconds(t0, Clock::now());
        events = system.eventQueue().executed();
        digest = system.translationStateDigest();
    } else {
        if (traced) {
            if (!IDYLL_TRACE_ENABLED)
                failures.push_back("layer profile unavailable: the "
                                   "tracer is compiled out "
                                   "(IDYLL_TRACE=OFF)");
            replay = std::make_unique<perfbench::LayerReplay>(cfg,
                                                              workload);
        }
        // Set-up is short and noisy, so it is timed kSetups times:
        // kSetups - 1 discarded systems, then the one that runs.
        constexpr int kSetups = 5;
        for (int i = 1; i < kSetups; ++i) {
            const auto t0 = Clock::now();
            MultiGpuSystem scratch(cfg);
            scratch.launch(workload);
            setups.push_back(seconds(t0, Clock::now()));
        }
        const auto t0 = Clock::now();
        MultiGpuSystem system(cfg);
        if (replay)
            system.tracer()->addSink(replay.get());
        system.launch(workload);
        setups.push_back(seconds(t0, Clock::now()));
        std::sort(setups.begin(), setups.end());
        setupS = setups[setups.size() / 2];

        EventQueue &eq = system.eventQueue();
        // A queue that never drains would loop forever; a run this
        // long is a livelock, reported as a failed run.
        constexpr std::size_t kMaxSlices = 5'000'000;
        Tick cursor = 0;
        while (!eq.empty() && sliceMs.size() < kMaxSlices) {
            cursor += o.sliceCycles;
            const auto a = Clock::now();
            eq.runUntil(cursor);
            const auto b = Clock::now();
            sliceMs.push_back(seconds(a, b) * 1e3);
            drainS += seconds(a, b);
            if (replay)
                replay->replayPending();
        }
        if (!eq.empty())
            failures.push_back("event queue did not drain");

        const auto f0 = Clock::now();
        results = system.finish(workload.name());
        finishS = seconds(f0, Clock::now());
        events = eq.executed();
        digest = system.translationStateDigest();
        if (replay) {
            replay->verifyAgainst(system);
            for (const std::string &f : replay->report().failures)
                failures.push_back("replay: " + f);
        }
    }

    // --- correctness checks -------------------------------------------
    std::uint64_t expectAccesses = static_cast<std::uint64_t>(cfg.numGpus) *
                                   cfg.cusPerGpu *
                                   workload.params().itemsPerCu;
    if (o.corruptExpect)
        ++expectAccesses; // self-test: a wrong expectation must fail
    if (results.accesses != expectAccesses)
        failures.push_back("accesses " + std::to_string(results.accesses) +
                           " != GPUs x CUs x itemsPerCu " +
                           std::to_string(expectAccesses));
    if (results.l1Hits + results.l1Misses != results.accesses)
        failures.push_back("l1Hits + l1Misses != accesses");
    if (results.invalNecessary + results.invalUnnecessary !=
        results.invalSent)
        failures.push_back("invalNecessary + invalUnnecessary != "
                           "invalSent");

    // --- report ---------------------------------------------------------
    std::ostringstream os;
    os << std::setprecision(17);
    os << "{\"ok\":" << (failures.empty() ? "true" : "false")
       << ",\"failures\":[";
    for (std::size_t i = 0; i < failures.size(); ++i)
        os << (i ? "," : "") << quoted(failures[i]);
    os << "],\"app\":" << quoted(o.app) << ",\"scheme\":" << quoted(o.scheme)
       << ",\"gpus\":" << o.gpus << ",\"scale\":" << o.scale
       << ",\"seed\":" << o.seed << ",\"mode\":" << quoted(o.mode)
       << ",\"results_hash\":"
       << quoted(hex(fnv1a(simulatedJson(results))))
       << ",\"exec_ticks\":" << results.execTicks
       << ",\"digest\":" << quoted(hex(digest))
       << ",\"accesses\":" << results.accesses << ",\"events\":" << events
       << ",\"setup_s\":" << setupS << ",\"drain_s\":" << drainS
       << ",\"finish_s\":" << finishS << ",\"setups_s\":[";
    for (std::size_t i = 0; i < setups.size(); ++i)
        os << (i ? "," : "") << setups[i];
    os << "],\"slice_ms\":[";
    for (std::size_t i = 0; i < sliceMs.size(); ++i)
        os << (i ? "," : "") << sliceMs[i];
    os << "],\"peak_rss_mb\":" << peakRssMb() << ",\"sim\":{"
       << "\"migrations\":" << results.migrations
       << ",\"inval_sent\":" << results.invalSent
       << ",\"inval_necessary\":" << results.invalNecessary
       << ",\"far_faults\":" << results.farFaults
       << ",\"network_bytes\":" << results.networkBytes
       << ",\"l2_misses\":" << results.l2Misses
       << ",\"demand_walks\":" << results.demandWalks
       << ",\"walk_queue_full_stalls\":" << results.walkQueueFullStalls
       << "}";
    if (replay) {
        const perfbench::ReplayReport &r = replay->report();
        os << ",\"layers\":{";
        writeSpan(os, "tlb_probe", r.tlbProbe);
        os << ",";
        writeSpan(os, "tlb_fill", r.tlbFill);
        os << ",";
        writeSpan(os, "tlb_shootdown", r.tlbShootdown);
        os << ",";
        writeSpan(os, "mem_walk", r.memWalk);
        os << ",";
        writeSpan(os, "gmmu_walk", r.gmmuWalk);
        os << ",";
        writeSpan(os, "irmb", r.irmb);
        os << ",";
        writeSpan(os, "dir", r.dir);
        os << ",\"shootdowns_useful\":" << r.shootdownsUseful
           << ",\"tlb_evicts\":" << r.tlbEvictsTraced
           << ",\"walks\":[" << r.walks[0] << "," << r.walks[1] << ","
           << r.walks[2] << "," << r.walks[3] << "]"
           << ",\"walk_wait_cycles\":" << r.walkWaitCycles
           << ",\"mmu_cache_hits\":" << r.mmuCacheHits
           << ",\"mmu_cache_misses\":" << r.mmuCacheMisses
           << ",\"irmb_inserts\":" << r.irmbInserts
           << ",\"irmb_merge_dups\":" << r.irmbMergeDups
           << ",\"net_messages\":" << r.netMessages
           << ",\"inval_rounds\":" << r.invalRounds << "}";
    }
    os << ",\"provenance\":" << provenanceJson(cfg, o) << "}";
    std::cout << os.str() << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    if (!parseArgs(argc, argv, options)) {
        std::cerr << kUsage;
        return 2;
    }
    try {
        return runOne(options);
    } catch (const std::exception &e) {
        std::cerr << "idyll_perfbench: run failed: " << e.what() << "\n";
        return 1;
    }
}
