#include "harness/cli.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "harness/runner.hh"
#include "sim/trace.hh"

namespace idyll
{

std::optional<SystemConfig>
schemeByName(const std::string &name)
{
    if (name == "baseline")
        return SystemConfig::baseline();
    if (name == "only-lazy")
        return SystemConfig::onlyLazy();
    if (name == "only-dir")
        return SystemConfig::onlyDirectory();
    if (name == "idyll")
        return SystemConfig::idyllFull();
    if (name == "inmem")
        return SystemConfig::idyllInMem();
    if (name == "zero")
        return SystemConfig::zeroLatencyInval();
    if (name == "replication") {
        SystemConfig cfg = SystemConfig::baseline();
        cfg.pageReplication = true;
        return cfg;
    }
    if (name == "transfw") {
        SystemConfig cfg = SystemConfig::baseline();
        cfg.transFw.enabled = true;
        return cfg;
    }
    if (name == "idyll+transfw") {
        SystemConfig cfg = SystemConfig::idyllFull();
        cfg.transFw.enabled = true;
        return cfg;
    }
    if (name == "idyll+dead") {
        // IDYLL plus dead-entry-aware replacement in the shared L2
        // TLB and every MMU-cache level.
        SystemConfig cfg = SystemConfig::idyllFull();
        cfg.l2Tlb.deadEntryEviction = true;
        cfg.gmmu.deadEntryEviction = true;
        return cfg;
    }
    if (name == "idyll+sub") {
        // IDYLL plus sub-entry sharing (4 pages per tag) in the
        // shared L2 TLB.
        SystemConfig cfg = SystemConfig::idyllFull();
        cfg.l2Tlb.subEntries = 4;
        return cfg;
    }
    return std::nullopt;
}

std::string
runFlagUsage()
{
    return "  --oracle            enable the translation-coherence oracle\n"
           "  --faults PLAN       fault-injection plan, e.g.\n"
           "                      inval.delay=800@0.3,ack.dup@0.2\n"
           "  --retry-timeout N   re-send unacked invalidations after N\n"
           "  --watchdog-events N trip after N events with no progress\n"
           "  --watchdog-ticks N  trip after N ticks with no progress\n"
           "  --trace CATS        trace \"all\" or a csv of\n"
           "                      tlb,irmb,dir,walk,mig,inval,fault,net\n"
           "  --latency           per-request latency scoreboard\n"
           "  --sample-every N    sample queue depths every N cycles\n"
           "  --host-stats        record wall-clock dispatch throughput\n";
}

std::string
cliUsage()
{
    return "usage: idyll_sim [FLAG...]\n"
           "  --app NAME          workload: a Table 3 app or DNN model\n"
           "  --scheme NAME       baseline only-lazy only-dir idyll inmem\n"
           "                      zero replication transfw idyll+transfw\n"
           "                      idyll+dead idyll+sub\n"
           "  --gpus N            GPU count\n"
           "  --cus N             CUs per GPU\n"
           "  --walkers N         page-table walker threads\n"
           "  --l2tlb N           L2 TLB entries\n"
           "  --l2-subentry N     share one L2 TLB tag across N pages\n"
           "  --dead-evict        dead-entry-aware replacement in the L2\n"
           "                      TLB and MMU caches\n"
           "  --mmu-cache ExW,... per-level MMU cache sizes from the leaf\n"
           "                      (L1) up, e.g. 64x8,32x4,16x4,8x4; the\n"
           "                      last entry repeats for deeper levels\n"
           "  --threshold N       access counter threshold\n"
           "  --page-size 4k|2m   page size\n"
           "  --irmb BxO          IRMB geometry, e.g. 32x16\n"
           "  --dir-bits M        in-PTE directory bits\n"
           "  --scale F           per-CU work multiplier\n"
           "  --shards N          event-core shards per run (1 = serial)\n"
           "  --seed N            RNG seed\n"
           "  --raw               do not apply the simulation scaling\n"
           "  --stats             print extended statistics\n"
           "  --unplug PLAN       GPU hot-unplug schedule, e.g.\n"
           "                      g1@60000/140000\n"
           "  --digest            print the final translation-state digest\n"
           "  --trace-out FILE    stream JSONL trace events to FILE\n"
           "  --trace-digest      print the canonical trace digest\n"
           "                      (implies --trace all unless given)\n"
           "  --sample-records N  sampler ring capacity (default 4096)\n"
           "  --sample-out FILE   write the sample ring JSON to FILE\n"
           "  --progress[=SECS]   status line every SECS (default 5)\n"
           "  --json FILE         write the full results JSON to FILE\n"
           "  --serve             windowed steady-state SLO mode\n"
           "  --serve-window N    measurement window length in cycles\n"
           "  --serve-warmup N    warmup windows discarded first\n"
           "  --serve-windows N   measured windows (0 = all)\n"
           "  --storm-every N     shift the hot set every Nth window\n"
           "  --storm-shift N     pages per shift (0 = the app's hotPages)\n"
           "  --bench-out FILE    write the serve BENCH_*.json to FILE\n"
           "  --chaos SEED,SECS   chaos soak: seeded fault plans, unplugs\n"
           "                      and storms with the oracle on, until\n"
           "                      SECS elapse or a trial fails\n"
           "  --chaos-trials N    cap the soak at N trials (0 = time)\n"
           "  --chaos-out FILE    write the chaos JSON artifact to FILE\n"
           "  --list-apps         list workloads and exit\n"
           "  --help              this text\n"
           "run flags (idyll_sweep takes them too):\n" +
           runFlagUsage();
}

bool
parseUnsigned(const std::string &text, std::uint64_t &out)
{
    // strtoull alone would skip blanks and wrap a leading '-'.
    if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])))
        return false;
    char *end = nullptr;
    errno = 0;
    out = std::strtoull(text.c_str(), &end, 10);
    return errno == 0 && end && *end == '\0';
}

bool
parseDouble(const std::string &text, double &out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    out = std::strtod(text.c_str(), &end);
    return end && *end == '\0' && std::isfinite(out);
}

void
applyEdits(const ConfigEdits &edits, SystemConfig &cfg)
{
    for (const auto &edit : edits)
        edit(cfg);
}

bool
parseRunFlag(const std::vector<std::string> &args, std::size_t &i,
             ConfigEdits &edits, std::string &error)
{
    const std::string &arg = args[i];
    const bool hasValue = i + 1 < args.size();
    std::uint64_t n = 0;
    auto positive = [&] {
        if (hasValue && parseUnsigned(args[++i], n) && n)
            return true;
        error = arg + " needs a positive integer";
        return false;
    };
    if (arg == "--oracle") {
        edits.push_back([](SystemConfig &c) { c.integrity.oracle = true; });
    } else if (arg == "--latency") {
        edits.push_back([](SystemConfig &c) { c.latency.enabled = true; });
    } else if (arg == "--host-stats") {
        edits.push_back([](SystemConfig &c) { c.hostStats = true; });
    } else if (arg == "--faults") {
        if (!hasValue)
            error = "--faults needs a plan, e.g. inval.delay=800@0.3";
        else
            edits.push_back([plan = args[++i]](SystemConfig &c) {
                c.integrity.faultPlan = plan;
            });
    } else if (arg == "--trace") {
        if (!hasValue)
            error = "--trace needs categories, e.g. all or tlb,irmb,inval";
        else if (!parseTraceCategories(args[++i]))
            error = "unknown trace category in '" + args[i] + "'";
        else
            edits.push_back([cats = args[i]](SystemConfig &c) {
                c.trace.categories = cats;
            });
    } else if (arg == "--retry-timeout") {
        if (positive())
            edits.push_back([n](SystemConfig &c) {
                c.integrity.invalRetryTimeout = n;
            });
    } else if (arg == "--watchdog-events") {
        if (positive())
            edits.push_back([n](SystemConfig &c) {
                c.integrity.watchdogMaxIdleEvents = n;
            });
    } else if (arg == "--watchdog-ticks") {
        if (positive())
            edits.push_back([n](SystemConfig &c) {
                c.integrity.watchdogMaxIdleTicks = n;
            });
    } else if (arg == "--sample-every") {
        if (positive())
            edits.push_back(
                [n](SystemConfig &c) { c.sampler.everyCycles = n; });
    } else {
        return false;
    }
    return true;
}

CliParse
parseCli(const std::vector<std::string> &args)
{
    CliOptions opts;
    bool raw = false;
    std::string schemeName = "baseline";
    // Config flags become edits, applied in order once the scheme
    // preset is resolved.
    ConfigEdits edits;
    auto edit = [&edits](auto e) { edits.push_back(std::move(e)); };

    auto fail = [](const std::string &msg) {
        return CliParse{std::nullopt, msg, ""};
    };

    std::size_t i = 0;
    std::string value;
    std::uint64_t n = 0;
    auto next = [&](std::string &out) {
        if (i + 1 >= args.size())
            return false;
        out = args[++i];
        return true;
    };
    // The flag's value as an unsigned (count) or positive integer, in n.
    auto count = [&] { return next(value) && parseUnsigned(value, n); };
    auto positive = [&] { return count() && n > 0; };

    for (; i < args.size(); ++i) {
        const std::string &arg = args[i];
        std::string error;
        if (parseRunFlag(args, i, edits, error)) {
            if (!error.empty())
                return fail(error);
        } else if (arg == "--help") {
            opts.help = true;
        } else if (arg == "--list-apps") {
            opts.listApps = true;
        } else if (arg == "--stats") {
            opts.dumpStats = true;
        } else if (arg == "--raw") {
            raw = true;
        } else if (arg == "--app") {
            if (!next(opts.app))
                return fail("--app needs a value");
        } else if (arg == "--scheme") {
            if (!next(schemeName))
                return fail("--scheme needs a value");
        } else if (arg == "--scale") {
            if (!next(value) || !parseDouble(value, opts.scale) ||
                opts.scale <= 0.0)
                return fail("--scale needs a positive number");
        } else if (arg == "--shards") {
            if (!positive())
                return fail("--shards needs a positive integer");
            edit([n](SystemConfig &c) { c.shards = n; });
        } else if (arg == "--gpus") {
            if (!positive())
                return fail("--gpus needs a positive integer");
            edit([n](SystemConfig &c) { c.numGpus = n; });
        } else if (arg == "--cus") {
            if (!positive())
                return fail("--cus needs a positive integer");
            edit([n](SystemConfig &c) { c.cusPerGpu = n; });
        } else if (arg == "--walkers") {
            if (!positive())
                return fail("--walkers needs a positive integer");
            edit([n](SystemConfig &c) { c.gmmu.walkerThreads = n; });
        } else if (arg == "--l2tlb") {
            if (!positive())
                return fail("--l2tlb needs a positive integer");
            edit([n](SystemConfig &c) { c.l2Tlb.entries = n; });
        } else if (arg == "--l2-subentry") {
            if (!positive())
                return fail("--l2-subentry needs a positive integer");
            edit([n](SystemConfig &c) { c.l2Tlb.subEntries = n; });
        } else if (arg == "--dead-evict") {
            edit([](SystemConfig &c) {
                c.l2Tlb.deadEntryEviction = true;
                c.gmmu.deadEntryEviction = true;
            });
        } else if (arg == "--mmu-cache") {
            if (!next(value))
                return fail("--mmu-cache needs ExW[,ExW...], e.g. "
                            "64x8,32x4,16x4,8x4");
            std::vector<MmuCacheLevelConfig> levels;
            std::stringstream ss(value);
            std::string item;
            while (std::getline(ss, item, ',')) {
                const auto x = item.find('x');
                std::uint64_t e = 0, w = 0;
                if (x == std::string::npos ||
                    !parseUnsigned(item.substr(0, x), e) ||
                    !parseUnsigned(item.substr(x + 1), w) || !e || !w)
                    return fail("--mmu-cache needs ExW[,ExW...], e.g. "
                                "64x8,32x4,16x4,8x4");
                levels.push_back(
                    MmuCacheLevelConfig{static_cast<std::uint32_t>(e),
                                        static_cast<std::uint32_t>(w)});
            }
            if (levels.empty())
                return fail("--mmu-cache needs at least one ExW level");
            edit([levels](SystemConfig &c) { c.gmmu.mmuCache = levels; });
        } else if (arg == "--threshold") {
            if (!positive())
                return fail("--threshold needs a positive integer");
            edit([n](SystemConfig &c) { c.accessCounterThreshold = n; });
        } else if (arg == "--dir-bits") {
            if (!positive())
                return fail("--dir-bits needs a positive integer");
            edit([n](SystemConfig &c) { c.directoryBits = n; });
        } else if (arg == "--seed") {
            if (!count())
                return fail("--seed needs an integer");
            edit([n](SystemConfig &c) { c.seed = n; });
        } else if (arg == "--page-size") {
            if (!next(value))
                return fail("--page-size needs 4k or 2m");
            std::uint32_t bits = 0;
            if (value == "4k" || value == "4K")
                bits = 12;
            else if (value == "2m" || value == "2M")
                bits = 21;
            else
                return fail("--page-size must be 4k or 2m");
            edit([bits](SystemConfig &c) { c.pageBits = bits; });
        } else if (arg == "--digest") {
            opts.digest = true;
        } else if (arg == "--trace-out") {
            if (!next(value))
                return fail("--trace-out needs a file path");
            edit([value](SystemConfig &c) { c.trace.jsonlPath = value; });
        } else if (arg == "--trace-digest") {
            opts.traceDigest = true;
        } else if (arg == "--progress" ||
                   arg.rfind("--progress=", 0) == 0) {
            double secs = 5.0;
            if (arg.size() > 10) {
                if (!parseDouble(arg.substr(11), secs) || secs <= 0.0)
                    return fail("--progress=SECS needs a positive "
                                "number");
            }
            edit([secs](SystemConfig &c) { c.progressSecs = secs; });
        } else if (arg == "--sample-records") {
            if (!positive())
                return fail("--sample-records needs a positive integer");
            edit([n](SystemConfig &c) { c.sampler.maxRecords = n; });
        } else if (arg == "--sample-out") {
            if (!next(value))
                return fail("--sample-out needs a file path");
            edit([value](SystemConfig &c) { c.sampler.jsonPath = value; });
        } else if (arg == "--json") {
            if (!next(opts.jsonOut))
                return fail("--json needs a file path");
        } else if (arg == "--serve") {
            opts.serve = true;
        } else if (arg == "--serve-window") {
            if (!positive())
                return fail("--serve-window needs a positive integer");
            opts.serveWindow = n;
        } else if (arg == "--serve-warmup") {
            if (!count())
                return fail("--serve-warmup needs an integer");
            opts.serveWarmup = static_cast<std::uint32_t>(n);
        } else if (arg == "--serve-windows") {
            if (!count())
                return fail("--serve-windows needs an integer");
            opts.serveWindows = static_cast<std::uint32_t>(n);
        } else if (arg == "--storm-every") {
            if (!count())
                return fail("--storm-every needs an integer");
            opts.stormEvery = static_cast<std::uint32_t>(n);
        } else if (arg == "--storm-shift") {
            if (!count())
                return fail("--storm-shift needs an integer");
            opts.stormShift = n;
        } else if (arg == "--bench-out") {
            if (!next(opts.benchOut))
                return fail("--bench-out needs a file path");
        } else if (arg == "--unplug") {
            if (!next(value))
                return fail("--unplug needs a plan, e.g. "
                            "g1@60000/140000");
            edit([value](SystemConfig &c) {
                c.integrity.unplugPlan = value;
            });
        } else if (arg == "--chaos") {
            if (!next(value))
                return fail("--chaos needs SEED,SECONDS, e.g. 7,60");
            const auto comma = value.find(',');
            std::uint64_t s = 0;
            double d = 0.0;
            if (comma == std::string::npos ||
                !parseUnsigned(value.substr(0, comma), s) ||
                !parseDouble(value.substr(comma + 1), d) || d < 0)
                return fail("--chaos needs SEED,SECONDS, e.g. 7,60");
            opts.chaos = true;
            opts.chaosSeed = s;
            opts.chaosSeconds = d;
        } else if (arg == "--chaos-trials") {
            if (!count())
                return fail("--chaos-trials needs an integer");
            opts.chaosTrials = n;
        } else if (arg == "--chaos-out") {
            if (!next(opts.chaosOut))
                return fail("--chaos-out needs a file path");
        } else if (arg == "--irmb") {
            if (!next(value))
                return fail("--irmb needs BxO, e.g. 32x16");
            const auto x = value.find('x');
            std::uint64_t b = 0, o = 0;
            if (x == std::string::npos ||
                !parseUnsigned(value.substr(0, x), b) ||
                !parseUnsigned(value.substr(x + 1), o) || !b || !o)
                return fail("--irmb needs BxO, e.g. 32x16");
            edit([b, o](SystemConfig &c) {
                c.irmb.bases = b;
                c.irmb.offsetsPerBase = o;
            });
        } else {
            return fail("unknown argument '" + arg + "'");
        }
    }

    auto preset = schemeByName(schemeName);
    if (!preset)
        return fail("unknown scheme '" + schemeName + "'");
    opts.scheme = schemeName;
    opts.config = raw ? *preset : scaledForSim(*preset);
    applyEdits(edits, opts.config);
    if (opts.traceDigest && opts.config.trace.categories.empty())
        opts.config.trace.categories = "all";
    if (opts.config.l2Tlb.entries % opts.config.l2Tlb.ways != 0)
        opts.config.l2Tlb.ways = 1; // keep arbitrary sizes legal

    return CliParse{opts, "", opts.config.advisory()};
}

} // namespace idyll
