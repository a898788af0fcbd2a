#include "harness/sweeps.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "harness/cli.hh"
#include "harness/tables.hh"
#include "sim/latency.hh"
#include "sim/logging.hh"
#include "workloads/workload.hh"

namespace idyll
{

namespace
{

// --- fields ----------------------------------------------------------

/** A plain SimResults member as a Field. */
template <auto Member>
double
field(const SimResults &r)
{
    return static_cast<double>(r.*Member);
}

/**
 * Average demand TLB-miss latency: the scoreboard's end-to-end
 * measurement when the run carried one, else the GPU-side average.
 */
double
demandAvgLatency(const SimResults &r)
{
    return r.latDemandCount
               ? static_cast<double>(r.latDemandCycles) /
                     static_cast<double>(r.latDemandCount)
               : r.demandMissLatencyAvg;
}

/** Total demand TLB-miss latency, preferring the scoreboard. */
double
demandTotalLatency(const SimResults &r)
{
    return r.latDemandCount ? static_cast<double>(r.latDemandCycles)
                            : r.demandMissLatencyTotal;
}

/** Requests the page walkers served: demand walks + invalidations. */
double
walkerRequests(const SimResults &r)
{
    return static_cast<double>(r.demandWalks + r.invalSent);
}

/** Demand miss cycles the scoreboard attributed to phase @p P. */
template <LatencyPhase P>
double
phaseCycles(const SimResults &r)
{
    const auto i = static_cast<std::size_t>(P);
    return i < r.latDemandPhaseCycles.size()
               ? static_cast<double>(r.latDemandPhaseCycles[i])
               : 0.0;
}

/** Accesses to pages shared by exactly K+1 GPUs. */
template <std::size_t K>
double
sharedBy(const SimResults &r)
{
    return K < r.sharingBuckets.size()
               ? static_cast<double>(r.sharingBuckets[K])
               : 0.0;
}

/** Accesses counted by the sharing histogram. */
double
sharedTotal(const SimResults &r)
{
    double total = 0;
    for (std::uint64_t b : r.sharingBuckets)
        total += static_cast<double>(b);
    return total;
}

double
invalWalkPct(const SimResults &r)
{
    return 100.0 * r.invalWalkShare();
}

/** The paper's Table 3 MPKI for the run's app. */
double
paperMpki(const SimResults &r)
{
    return Workload::byName(r.app).params().mpkiHint;
}

// --- columns ---------------------------------------------------------

SweepColumn
speedup(std::string header, std::string point,
        std::string against = "baseline")
{
    return {std::move(header), Metric::Speedup, std::move(point),
            std::move(against), nullptr, nullptr};
}

SweepColumn
ratio(std::string header, Field f, std::string point,
      std::string against = "baseline")
{
    return {std::move(header), Metric::Ratio, std::move(point),
            std::move(against), f, nullptr};
}

SweepColumn
saving(std::string header, Field f, std::string point,
       std::string against)
{
    return {std::move(header), Metric::Saving, std::move(point),
            std::move(against), f, nullptr};
}

SweepColumn
percent(std::string header, Field part, Field whole, std::string point)
{
    return {std::move(header), Metric::Percent, std::move(point), "",
            part, whole};
}

/** % of the point's demand miss latency spent in phase @p P. */
template <LatencyPhase P>
SweepColumn
phaseShare(std::string header, std::string point)
{
    return percent(std::move(header), phaseCycles<P>,
                   field<&SimResults::latDemandCycles>, std::move(point));
}

SweepColumn
raw(std::string header, Field f, std::string point)
{
    return {std::move(header), Metric::Raw, std::move(point), "", f,
            nullptr};
}

// --- points and workloads --------------------------------------------

/** A simulation-scaled preset (see schemeByName()). */
SystemConfig
preset(const std::string &scheme)
{
    auto cfg = schemeByName(scheme);
    if (!cfg)
        fatal("sweep registry names unknown scheme '", scheme, "'");
    return scaledForSim(*cfg);
}

/** Copy of @p cfg with the per-request latency scoreboard enabled. */
SystemConfig
withLatency(SystemConfig cfg)
{
    cfg.latency.enabled = true;
    return cfg;
}

/** Each named preset as its own point. */
std::vector<SchemePoint>
presets(const std::vector<std::string> &schemes)
{
    std::vector<SchemePoint> points;
    for (const std::string &scheme : schemes)
        points.push_back({scheme, preset(scheme)});
    return points;
}

/**
 * Figure 21's enlarged inputs: 64x the data on 2 MB pages leaves an
 * eighth of the page count.
 */
Workload
enlargedFor2MbPages(const std::string &app, double scale)
{
    AppParams params = Workload::byName(app, scale).params();
    params.footprintPages =
        std::max<std::uint64_t>(params.footprintPages / 8, 256);
    params.hotPages = std::max<std::uint64_t>(params.hotPages / 8,
                                              params.hotPages ? 8 : 0);
    return Workload{params};
}

const char *
patternName(SharePattern p)
{
    switch (p) {
      case SharePattern::Adjacent:
        return "Adjacent";
      case SharePattern::Random:
        return "Random";
      case SharePattern::ScatterGather:
        return "Scatter-Gather";
      case SharePattern::DnnPipeline:
        return "DNN-Pipeline";
    }
    return "?";
}

/** Table 2: the configuration the figures start from. */
std::string
table2Notes()
{
    const SystemConfig cfg = SystemConfig::baseline();
    const SystemConfig scaled = scaledForSim(cfg);
    std::ostringstream os;
    os << cfg.describe();
    os << "\nSimulation scaling applied by the sweeps:\n"
       << "  access counter threshold " << cfg.accessCounterThreshold
       << " -> " << scaled.accessCounterThreshold
       << " (runs are ~10^3 shorter than the traced apps)\n"
       << "  warm start: pages pre-placed on their home GPU\n";
    os << "\nIDYLL structures:\n"
       << "  IRMB " << cfg.irmb.bases << " merged entries x "
       << cfg.irmb.offsetsPerBase << " offsets = "
       << (36 + 9 * cfg.irmb.offsetsPerBase) * cfg.irmb.bases / 8
       << " bytes\n"
       << "  in-PTE directory bits  " << cfg.directoryBits
       << " (PTE bits 62..52)\n"
       << "  VM-Cache " << cfg.vmCache.entries << " entries, "
       << cfg.vmCache.ways << "-way\n";
    return os.str();
}

/** Table 3: each app's sharing pattern. */
std::string
table3Notes()
{
    std::string notes;
    char line[64];
    std::snprintf(line, sizeof line, "%-6s %-16s\n", "app", "pattern");
    notes += line;
    for (const std::string &app : Workload::appNames()) {
        std::snprintf(line, sizeof line, "%-6s %-16s\n", app.c_str(),
                      patternName(Workload::byName(app).params().pattern));
        notes += line;
    }
    return notes;
}

// --- the registry ----------------------------------------------------

std::vector<SweepSpec>
makeRegistry()
{
    const std::vector<std::string> &apps = Workload::appNames();
    std::vector<SweepSpec> specs;
    // Appends a spec; the reference is valid until the next add().
    auto add = [&](std::string name, std::string description,
                   std::string expectation,
                   std::vector<std::string> specApps,
                   std::string title) -> SweepSpec & {
        SweepSpec &spec = specs.emplace_back();
        spec.name = std::move(name);
        spec.description = std::move(description);
        spec.expectation = std::move(expectation);
        spec.apps = std::move(specApps);
        spec.title = std::move(title);
        return spec;
    };

    {
        SweepSpec &s = add("smoke", "tiny CI grid (2 apps x 3 schemes)",
                           "IDYLL and zero-latency invalidation >= 1.0",
                           {apps.front(), apps.back()},
                           "speedup over baseline");
        s.points = presets({"baseline", "idyll", "zero"});
        s.columns = {speedup("IDYLL", "idyll"),
                     speedup("zero-lat", "zero")};
    }

    add("table2", "baseline multi-GPU configuration",
        "4 GPUs, 64 CUs, 2-level TLBs, 8 PTW threads, NVLink-v2 + "
        "PCIe-v4, access counter threshold 256",
        {}, "")
        .notes = table2Notes();

    {
        SweepSpec &s = add(
            "table3", "application suite and L2 TLB MPKI",
            "MPKI: MT 185.5 > PR 78.2 > KM 50.7 > ST 36.2 > C2D 21.4 > "
            "IM 18.3 > SC 15.8 > MM 11.2 > BS 3.4",
            apps, "Table 3 (measured on this simulator)");
        s.points = presets({"baseline"});
        s.columns = {raw("measured-MPKI", field<&SimResults::mpki>,
                         "baseline"),
                     raw("paper-MPKI", paperMpki, "baseline")};
        s.precision = 2;
        s.average = false;
        s.notes = table3Notes();
    }

    {
        SweepSpec &s = add("fig01",
                           "page table invalidation overhead (2 GPUs)",
                           "~42% of execution time on average; PR and ST "
                           "among the highest",
                           {"MT", "MM", "PR", "ST", "SC", "KM"},
                           "invalidation overhead (% of execution time)");
        SystemConfig base = preset("baseline");
        base.numGpus = 2;
        SystemConfig zero = preset("zero");
        zero.numGpus = 2;
        s.points = {{"baseline-2g", base}, {"zero-2g", zero}};
        s.columns = {saving("overhead-%", field<&SimResults::execTicks>,
                            "zero-2g", "baseline-2g")};
        s.precision = 1;
    }

    {
        SweepSpec &s = add("fig02", "migration policies vs counter-based",
                           "oracle ~1.73x average; first/on-touch "
                           "usually < 1",
                           apps,
                           "performance relative to access counter-based");
        SystemConfig onTouch = preset("baseline");
        onTouch.migrationPolicy = MigrationPolicy::OnTouch;
        SystemConfig firstTouch = preset("baseline");
        firstTouch.migrationPolicy = MigrationPolicy::FirstTouch;
        s.points = {{"baseline", preset("baseline")},
                    {"on-touch", onTouch},
                    {"first-touch", firstTouch},
                    {"zero", preset("zero")}};
        s.columns = {speedup("on-touch", "on-touch"),
                     speedup("first-touch", "first-touch"),
                     speedup("zero-lat", "zero")};
    }

    {
        SweepSpec &s = add("fig04", "distribution of shared-page accesses",
                           "MM/PR/KM ~all accesses to 4-shared pages; "
                           "MT/C2D concentrated on 2-shared",
                           apps, "% of accesses to pages shared by k GPUs");
        s.points = presets({"baseline"});
        s.columns = {
            percent("1-GPU", sharedBy<0>, sharedTotal, "baseline"),
            percent("2-GPUs", sharedBy<1>, sharedTotal, "baseline"),
            percent("3-GPUs", sharedBy<2>, sharedTotal, "baseline"),
            percent("4-GPUs", sharedBy<3>, sharedTotal, "baseline")};
        s.precision = 1;
        s.average = false;
    }

    {
        SweepSpec &s = add("fig05", "page-walker request breakdown "
                                    "(baseline)",
                           "~27% of walker requests are invalidations; "
                           "~32% of those are unnecessary",
                           apps, "% of page-walker requests");
        s.points = {{"baseline", withLatency(preset("baseline"))},
                    {"idyll", withLatency(preset("idyll"))}};
        s.columns = {
            percent("demand", field<&SimResults::demandWalks>,
                    walkerRequests, "baseline"),
            percent("necessary-inv", field<&SimResults::invalNecessary>,
                    walkerRequests, "baseline"),
            percent("unnecessary-inv", field<&SimResults::invalUnnecessary>,
                    walkerRequests, "baseline"),
            // Scoreboard view of the same contention: share of demand
            // miss latency spent queued behind walker traffic.
            phaseShare<LatencyPhase::PtwQueue>("queue-lat-%", "baseline"),
            // The IRMB absorbs invalidations, so under IDYLL demand
            // walks stop queueing behind them.
            phaseShare<LatencyPhase::PtwQueue>("idyll-queue-%", "idyll")};
        s.precision = 1;
    }

    {
        SweepSpec &s = add("fig06", "demand TLB-miss latency w/o "
                                    "invalidation contention",
                           "average latency drops ~55.8% vs baseline",
                           apps, "demand TLB-miss latency");
        s.points = {{"baseline", withLatency(preset("baseline"))},
                    {"zero", withLatency(preset("zero"))}};
        s.columns = {ratio("relative", demandAvgLatency, "zero"),
                     raw("base-cycles", demandAvgLatency, "baseline"),
                     raw("oracle-cycles", demandAvgLatency, "zero")};
        s.precision = 2;
    }

    {
        SweepSpec &s = add("fig07", "migration waiting latency share "
                                    "(baseline)",
                           "waiting ~38% of total migration latency "
                           "(854 / 2230 cycles in the paper)",
                           apps, "migration latency breakdown (cycles)");
        s.points = {{"baseline", withLatency(preset("baseline"))}};
        s.columns = {
            raw("wait", field<&SimResults::migrationWaitAvg>, "baseline"),
            raw("total", field<&SimResults::migrationTotalAvg>, "baseline"),
            percent("wait-%", field<&SimResults::migrationWaitAvg>,
                    field<&SimResults::migrationTotalAvg>, "baseline"),
            // Scoreboard cross-check: how much of demand miss latency
            // the same waiting shows up as (migration-wait phase).
            phaseShare<LatencyPhase::MigrationWait>("miss-lat-%",
                                                    "baseline")};
        s.precision = 1;
    }

    {
        SweepSpec &s = add("fig11", "overall performance vs baseline",
                           "Only-Dir +27.3%, Only-Lazy +55.8%, IDYLL "
                           "+69.9%, IDYLL-InMem ~+70%, oracle ~+73%",
                           apps, "speedup over baseline");
        s.points = presets({"baseline", "only-lazy", "only-dir", "inmem",
                            "idyll", "idyll+dead", "idyll+sub", "zero"});
        s.columns = {speedup("only-lazy", "only-lazy"),
                     speedup("only-dir", "only-dir"),
                     speedup("IDYLL-InMem", "inmem"),
                     speedup("IDYLL", "idyll"),
                     speedup("idyll+dead", "idyll+dead"),
                     speedup("idyll+sub", "idyll+sub"),
                     speedup("zero-lat", "zero")};
    }

    {
        SweepSpec &s = add("fig12", "demand TLB-miss latency under IDYLL",
                           "~59.7% average reduction vs baseline", apps,
                           "total demand TLB-miss latency relative to "
                           "baseline");
        s.points = {{"baseline", withLatency(preset("baseline"))},
                    {"idyll", withLatency(preset("idyll"))}};
        s.columns = {ratio("relative", demandTotalLatency, "idyll")};
    }

    {
        SweepSpec &s = add("fig13", "invalidation requests under IDYLL",
                           "count ~0.68x of baseline, total latency ~0.32x",
                           apps, "invalidations relative to baseline");
        s.points = presets({"baseline", "idyll"});
        s.columns = {
            ratio("rel-count", field<&SimResults::invalSent>, "idyll"),
            ratio("rel-latency",
                  field<&SimResults::invalServiceLatencyTotal>, "idyll")};
    }

    {
        SweepSpec &s = add("fig14", "migration waiting latency under IDYLL",
                           "~71% average reduction vs baseline", apps,
                           "total migration waiting latency vs baseline");
        s.points = {{"baseline", withLatency(preset("baseline"))},
                    {"idyll", withLatency(preset("idyll"))}};
        s.columns = {
            ratio("relative", field<&SimResults::migrationWaitTotal>,
                  "idyll"),
            raw("base-avg-cyc", field<&SimResults::migrationWaitAvg>,
                "baseline"),
            raw("idyll-avg-cyc", field<&SimResults::migrationWaitAvg>,
                "idyll")};
        s.precision = 2;
    }

    {
        SweepSpec &s = add("fig15", "IDYLL with different IRMB sizes",
                           "(16,8) +44.8%, default (32,16) +69.9%, "
                           "(64,16) +76.9% in the paper",
                           apps, "IDYLL speedup over baseline by IRMB size");
        s.points = presets({"baseline"});
        const std::pair<std::uint32_t, std::uint32_t> sizes[] = {
            {16, 8}, {16, 16}, {32, 8}, {32, 16}, {64, 16}};
        for (auto [bases, offsets] : sizes) {
            SystemConfig cfg = preset("idyll");
            cfg.irmb.bases = bases;
            cfg.irmb.offsetsPerBase = offsets;
            // Appended piecewise: "(" + std::string trips a gcc 12
            // -Wrestrict false positive.
            std::string label = "(";
            label += std::to_string(bases) + ",";
            label += std::to_string(offsets) + ")";
            s.points.push_back({label, cfg});
            s.columns.push_back(speedup(label, label));
        }
    }

    {
        SweepSpec &s = add("fig16", "IDYLL with 16/32 PTW threads",
                           "+60% with 16 threads, +43.3% with 32 (each vs "
                           "same-thread baseline)",
                           apps,
                           "IDYLL speedup vs same-walker-count baseline");
        for (std::uint32_t walkers : {8u, 16u, 32u}) {
            const std::string n = std::to_string(walkers);
            SystemConfig base = preset("baseline");
            base.gmmu.walkerThreads = walkers;
            SystemConfig idyllCfg = preset("idyll");
            idyllCfg.gmmu.walkerThreads = walkers;
            s.points.push_back({"baseline-" + n + "w", base});
            s.points.push_back({"idyll-" + n + "w", idyllCfg});
            s.columns.push_back(speedup(n + "-walkers", "idyll-" + n + "w",
                                        "baseline-" + n + "w"));
        }
    }

    {
        SweepSpec &s = add("fig17", "IDYLL with a 2048-entry L2 TLB",
                           "+61.4% average vs 2048-entry baseline; "
                           "sub-entry sharing and dead-entry eviction ride "
                           "on top",
                           apps, "speedup with 2048-entry L2 TLB");
        SystemConfig base = preset("baseline");
        base.l2Tlb = TlbConfig{2048, 64, 10};
        SystemConfig idyllCfg = preset("idyll");
        idyllCfg.l2Tlb = TlbConfig{2048, 64, 10};
        SystemConfig sub = idyllCfg;
        sub.l2Tlb.subEntries = 4;
        SystemConfig dead = idyllCfg;
        dead.l2Tlb.deadEntryEviction = true;
        s.points = {{"baseline-2048", base},
                    {"idyll-2048", idyllCfg},
                    {"idyll-sub4-2048", sub},
                    {"idyll-dead-2048", dead}};
        s.columns = {
            speedup("IDYLL-2048", "idyll-2048", "baseline-2048"),
            speedup("IDYLL-sub4", "idyll-sub4-2048", "baseline-2048"),
            speedup("IDYLL-dead", "idyll-dead-2048", "baseline-2048")};
    }

    // More GPUs means more CUs: each point's work shrinks by 4/gpus so
    // the total work stays that of the 4-GPU system.
    auto gpuScaling = [](SweepSpec &s,
                         std::initializer_list<std::uint32_t> gpuCounts,
                         std::uint32_t directoryBits) {
        for (std::uint32_t gpus : gpuCounts) {
            const std::string n = std::to_string(gpus);
            const double work = 4.0 / gpus;
            SystemConfig base = preset("baseline");
            base.numGpus = gpus;
            SystemConfig idyllCfg = preset("idyll");
            idyllCfg.numGpus = gpus;
            if (directoryBits)
                idyllCfg.directoryBits = directoryBits;
            s.points.push_back({"baseline-" + n + "g", base, work});
            s.points.push_back({"idyll-" + n + "g", idyllCfg, work});
            s.columns.push_back(speedup(n + "-GPU", "idyll-" + n + "g",
                                        "baseline-" + n + "g"));
        }
    };
    gpuScaling(add("fig18", "IDYLL with 8 to 64 GPUs",
                   "+75.3% (8 GPUs), +79.1% (16 GPUs); gains grow with "
                   "GPU count, growth slows past it",
                   apps, "IDYLL speedup vs same-GPU-count baseline"),
               {4, 8, 16, 32, 64}, 0);
    gpuScaling(add("fig19", "IDYLL with 4 unused PTE bits",
                   "+56.5% (8 GPUs), +57.1% (16), +70.1% (32)", apps,
                   "IDYLL (m=4) speedup vs same-GPU-count baseline"),
               {8, 16, 32}, 4);

    {
        SweepSpec &s = add("fig20", "access-counter threshold 256 vs 512",
                           "IDYLL-512 ~+30% over base-512; base-512 ~0.9x "
                           "of base-256",
                           apps, "performance relative to baseline-256");
        SystemConfig base512 = preset("baseline");
        base512.accessCounterThreshold = kScaledThreshold512;
        SystemConfig idyll512 = preset("idyll");
        idyll512.accessCounterThreshold = kScaledThreshold512;
        s.points = {{"baseline-256", preset("baseline")},
                    {"idyll-256", preset("idyll")},
                    {"baseline-512", base512},
                    {"idyll-512", idyll512}};
        s.columns = {
            speedup("idyll-256", "idyll-256", "baseline-256"),
            speedup("base-512", "baseline-512", "baseline-256"),
            speedup("idyll-512", "idyll-512", "baseline-256")};
    }

    {
        SweepSpec &s = add("fig21", "IDYLL with 2 MB pages",
                           "~+36.3% average vs 2 MB baseline; gains drop "
                           "vs 4 KB but PR stays high",
                           apps, "IDYLL speedup with 2 MB pages");
        SystemConfig base = preset("baseline");
        base.pageBits = 21;
        SystemConfig idyllCfg = preset("idyll");
        idyllCfg.pageBits = 21;
        s.points = {{"baseline-2m", base}, {"idyll-2m", idyllCfg}};
        s.workload = enlargedFor2MbPages;
        s.columns = {speedup("IDYLL-2MB", "idyll-2m", "baseline-2m")};
    }

    {
        SweepSpec &s = add("fig22", "IDYLL vs page replication",
                           "~+25% average; biggest wins on write-intensive "
                           "IM and C2D",
                           apps, "IDYLL speedup over page replication");
        s.points = presets({"replication", "idyll"});
        s.columns = {
            speedup("IDYLL/replication", "idyll", "replication"),
            raw("repl-collapses", field<&SimResults::migrations>,
                "replication")};
    }

    {
        SweepSpec &s = add("fig23", "Trans-FW vs IDYLL vs combination",
                           "Trans-FW ~+30% < IDYLL ~+69.9% < combo "
                           "~+86.3%",
                           apps, "speedup over baseline");
        s.points =
            presets({"baseline", "transfw", "idyll", "idyll+transfw"});
        s.columns = {speedup("Trans-FW", "transfw"),
                     speedup("IDYLL", "idyll"),
                     speedup("IDYLL+Trans-FW", "idyll+transfw")};
    }

    {
        SweepSpec &s = add("fig24", "IDYLL on DNN workloads",
                           "VGG16 +15.9%, ResNet18 +12.0%",
                           Workload::dnnNames(),
                           "IDYLL speedup over baseline");
        s.points = presets({"baseline", "idyll"});
        s.columns = {speedup("IDYLL", "idyll"),
                     raw("migrations", field<&SimResults::migrations>,
                         "baseline"),
                     raw("inval-share-%", invalWalkPct, "baseline")};
        s.average = false;
    }

    {
        SweepSpec &s = add("ablation-directory-bits",
                           "directory bits m in {1,2,4,8,11}, 16 GPUs",
                           "filtering (and the Only-Dir share of IDYLL's "
                           "win) grows monotonically with m",
                           apps, "IDYLL speedup vs 16-GPU baseline");
        // 16 GPUs carry 4x the CUs: a quarter of the work per CU.
        constexpr double kWork = 0.25;
        SystemConfig base = preset("baseline");
        base.numGpus = 16;
        s.points = {{"baseline-16g", base, kWork}};
        for (std::uint32_t m : {1u, 2u, 4u, 8u, 11u}) {
            const std::string n = std::to_string(m);
            SystemConfig cfg = preset("idyll");
            cfg.numGpus = 16;
            cfg.directoryBits = m;
            s.points.push_back({"idyll-m" + n, cfg, kWork});
            s.columns.push_back(
                speedup("m=" + n, "idyll-m" + n, "baseline-16g"));
        }
        s.columns.push_back(saving("filtered-%(m=11)",
                                   field<&SimResults::invalSent>,
                                   "idyll-m11", "baseline-16g"));
    }

    {
        SweepSpec &s = add("ablation-irmb-policy",
                           "IRMB write-back policy decomposition",
                           "full IDYLL >= no-idle-drain >= unbatched >= "
                           "baseline",
                           apps, "speedup over baseline");
        SystemConfig noBatch = preset("idyll");
        noBatch.irmb.batchedWriteback = false;
        SystemConfig noDrain = preset("idyll");
        noDrain.irmb.idleDrain = false;
        SystemConfig neither = noBatch;
        neither.irmb.idleDrain = false;
        s.points = {{"baseline", preset("baseline")},
                    {"idyll", preset("idyll")},
                    {"no-batch", noBatch},
                    {"no-idle-drain", noDrain},
                    {"neither", neither}};
        s.columns = {speedup("IDYLL", "idyll"),
                     speedup("no-batch", "no-batch"),
                     speedup("no-idle-drain", "no-idle-drain"),
                     speedup("neither", "neither")};
    }

    {
        SweepSpec &s = add("ablation-mmu-cache",
                           "MMU-cache geometry (small / default / large / "
                           "default+dead-evict)",
                           "IDYLL's edge shrinks slowly with MMU-cache "
                           "size: the queue/walker contention it removes "
                           "remains",
                           apps, "IDYLL speedup vs same-geometry baseline");
        struct Geometry
        {
            std::string name;
            std::vector<MmuCacheLevelConfig> levels;
            bool deadEvict;
        };
        const std::vector<Geometry> geometries = {
            {"mmu-small", {{16, 4}, {8, 4}, {4, 4}, {4, 4}}, false},
            {"mmu-default", {{64, 8}, {32, 4}, {16, 4}, {8, 4}}, false},
            {"mmu-large", {{256, 8}, {128, 8}, {64, 4}, {32, 4}}, false},
            {"mmu-dead", {{64, 8}, {32, 4}, {16, 4}, {8, 4}}, true},
        };
        for (const Geometry &g : geometries) {
            SystemConfig base = preset("baseline");
            base.gmmu.mmuCache = g.levels;
            base.gmmu.deadEntryEviction = g.deadEvict;
            SystemConfig idyllCfg = preset("idyll");
            idyllCfg.gmmu.mmuCache = g.levels;
            idyllCfg.gmmu.deadEntryEviction = g.deadEvict;
            s.points.push_back({"baseline-" + g.name, base});
            s.points.push_back({"idyll-" + g.name, idyllCfg});
            s.columns.push_back(
                speedup(g.name, "idyll-" + g.name, "baseline-" + g.name));
        }
    }

    return specs;
}

double
columnValue(const SweepColumn &col, const SimResults &r,
            const SimResults &ref)
{
    switch (col.metric) {
      case Metric::Speedup:
        return r.speedupOver(ref);
      case Metric::Ratio: {
        const double den = col.field(ref);
        return den > 0.0 ? col.field(r) / den : 0.0;
      }
      case Metric::Saving: {
        const double den = col.field(ref);
        return den > 0.0 ? 100.0 * (1.0 - col.field(r) / den) : 0.0;
      }
      case Metric::Percent: {
        const double whole = col.whole(r);
        return whole > 0.0 ? 100.0 * col.field(r) / whole : 0.0;
      }
      case Metric::Raw:
        return col.field(r);
    }
    return 0.0;
}

} // namespace

std::vector<SweepSpec>
allSweeps()
{
    // Rebuilt per call: scaledForSim() reads the integrity and
    // observability environment knobs when the points are made.
    return makeRegistry();
}

std::vector<std::string>
sweepNames()
{
    std::vector<std::string> names;
    for (const SweepSpec &spec : allSweeps())
        names.push_back(spec.name);
    return names;
}

std::optional<SweepSpec>
sweepByName(const std::string &name)
{
    for (SweepSpec &spec : allSweeps())
        if (spec.name == name)
            return std::move(spec);
    return std::nullopt;
}

std::vector<std::string>
pointLabels(const SweepSpec &spec)
{
    std::vector<std::string> labels;
    labels.reserve(spec.points.size());
    for (const SchemePoint &point : spec.points)
        labels.push_back(point.label);
    return labels;
}

void
printSweep(std::ostream &os, const SweepSpec &spec,
           const std::vector<std::vector<SimResults>> &grid)
{
    const std::string rule(46, '=');
    os << rule << "\n"
       << spec.name << ": " << spec.description << "\n"
       << "paper expectation: " << spec.expectation << "\n"
       << rule << "\n"
       << spec.notes;
    if (spec.columns.empty())
        return;

    auto row = [&](const std::string &label) -> const auto & {
        for (std::size_t i = 0; i < spec.points.size(); ++i)
            if (spec.points[i].label == label)
                return grid.at(i);
        fatal("sweep '", spec.name, "' has no point '", label, "'");
    };
    std::vector<std::string> headers;
    for (const SweepColumn &col : spec.columns)
        headers.push_back(col.header);
    ResultTable table(spec.title, headers);
    for (std::size_t a = 0; a < spec.apps.size(); ++a) {
        std::vector<double> values;
        for (const SweepColumn &col : spec.columns) {
            const SimResults &r = row(col.point).at(a);
            values.push_back(columnValue(
                col, r, col.against.empty() ? r : row(col.against).at(a)));
        }
        table.addRow(spec.apps[a], std::move(values));
    }
    if (spec.average)
        table.addAverageRow();
    table.print(os, spec.precision);
}

} // namespace idyll
