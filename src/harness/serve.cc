#include "harness/serve.hh"

#include <chrono>
#include <limits>
#include <sstream>

#include "harness/cli.hh"
#include "harness/runner.hh"
#include "harness/system.hh"
#include "harness/tables.hh"
#include "sim/logging.hh"
#include "workloads/workload.hh"

namespace idyll
{

namespace
{

/** Round-tripping double format, matching SimResults::toJson. */
std::string
fmtDouble(double value)
{
    std::ostringstream os;
    os.precision(std::numeric_limits<double>::max_digits10);
    os << value;
    return os.str();
}

/** Summarize one LatencyWindow's demand side into a ServeWindow. */
ServeWindow
summarize(const LatencyWindow &snap, std::uint32_t index, Tick start,
          Tick end, bool storm, bool tail)
{
    constexpr auto kDemand =
        static_cast<std::size_t>(RequestKind::Demand);
    constexpr auto kInval =
        static_cast<std::size_t>(RequestKind::Invalidation);
    ServeWindow w;
    w.index = index;
    w.startTick = start;
    w.endTick = end;
    w.storm = storm;
    w.tail = tail;
    w.demandFinished = snap.finished[kDemand];
    w.demandCycles = snap.totalCycles[kDemand];
    w.invalFinished = snap.finished[kInval];
    const LogHistogram &h = snap.totalHist[kDemand];
    w.p50 = h.percentile(50);
    w.p99 = h.percentile(99);
    w.p999 = h.percentile(99.9);
    w.max = h.max();
    return w;
}

/**
 * Classify a measurement window [start, end) against the driver's
 * recovery episodes: overlapping an open or active recovery makes it
 * DuringRecovery; entirely after a closed recovery makes it
 * PostRecovery; otherwise it precedes the (first) loss.
 */
ServePhase
classifyPhase(const std::vector<RecoveryWindow> &recoveries, Tick start,
              Tick end)
{
    ServePhase phase = ServePhase::PreLoss;
    for (const RecoveryWindow &rw : recoveries) {
        if (rw.startTick < end && (rw.endTick == 0 || rw.endTick > start))
            return ServePhase::DuringRecovery;
        if (rw.endTick != 0 && rw.endTick <= start)
            phase = ServePhase::PostRecovery;
    }
    return phase;
}

} // namespace

ServeReport
runServe(const std::string &app, const SystemConfig &cfg, double scale,
         const ServeParams &params)
{
    IDYLL_ASSERT(params.windowCycles > 0,
                 "serve window must be positive");
    constexpr auto kDemand =
        static_cast<std::size_t>(RequestKind::Demand);

    SystemConfig serveCfg = cfg;
    serveCfg.latency.enabled = true; // percentiles need the scoreboard
    if (!params.unplugPlan.empty())
        serveCfg.integrity.unplugPlan = params.unplugPlan;
    if (!serveCfg.integrity.unplugPlan.empty()) {
        // A degraded serve run is always shadow-checked: the point of
        // the drill is proving no stale dead-device translation leaks.
        serveCfg.integrity.oracle = true;
    }

    Workload workload = Workload::byName(app, scale);
    StormController storm;
    workload.setStorm(&storm);
    const std::uint64_t shiftPages =
        params.stormShiftPages ? params.stormShiftPages
                               : workload.params().hotPages;

    ServeReport report;
    report.app = app;
    report.gpus = serveCfg.numGpus;
    report.scale = scale;
    report.seed = serveCfg.seed;
    report.params = params;

    MultiGpuSystem system(serveCfg);
    report.scheme = schemeName(system.config());
    system.launch(workload);
    EventQueue &eq = system.eventQueue();
    LatencyScoreboard *scoreboard = system.latency();
    IDYLL_ASSERT(scoreboard, "serve mode requires the scoreboard");

    const auto wallStart = std::chrono::steady_clock::now();

    // Warmup: run the horizon, then discard everything that finished
    // inside it so steady-state percentiles never see cold-start
    // latencies. Requests still in flight at the horizon keep their
    // tokens and count toward the window where they finish.
    report.warmupEndTick =
        static_cast<Tick>(params.warmupWindows) * params.windowCycles;
    if (report.warmupEndTick > 0)
        eq.runUntil(report.warmupEndTick);
    const LatencyWindow warmup = scoreboard->snapshotAndReset();
    report.warmupFinished = warmup.finished[kDemand];

    // Measurement loop: one bounded event-queue slice per window, one
    // scoreboard snapshot per slice. Storm shifts are applied between
    // slices (never from inside an event), keeping runs deterministic.
    LogHistogram steadyHist, stormHist;
    LogHistogram preHist, duringHist, postHist;
    Tick cursor = report.warmupEndTick;
    std::uint32_t w = 0;
    std::uint32_t steadyWindows = 0;
    const auto &recoveries = system.driver().recoveryWindows();
    const auto accountPhase = [&](ServeWindow &window,
                                  const LatencyWindow &snap) {
        window.phase =
            classifyPhase(recoveries, window.startTick, window.endTick);
        switch (window.phase) {
          case ServePhase::PreLoss:
            preHist.merge(snap.totalHist[kDemand]);
            report.preLossFinished += window.demandFinished;
            break;
          case ServePhase::DuringRecovery:
            duringHist.merge(snap.totalHist[kDemand]);
            report.duringRecoveryFinished += window.demandFinished;
            break;
          case ServePhase::PostRecovery:
            postHist.merge(snap.totalHist[kDemand]);
            report.postRecoveryFinished += window.demandFinished;
            break;
        }
    };
    while (!eq.empty() &&
           (params.maxWindows == 0 || w < params.maxWindows)) {
        const bool stormWin =
            params.stormEvery > 0 &&
            (w + 1) % params.stormEvery == 0;
        if (stormWin)
            storm.shift(shiftPages, workload.params().footprintPages);

        const Tick start = cursor;
        cursor += params.windowCycles;
        eq.runUntil(cursor);

        const LatencyWindow snap = scoreboard->snapshotAndReset();
        ServeWindow window =
            summarize(snap, w, start, cursor, stormWin, false);
        accountPhase(window, snap);
        if (stormWin) {
            stormHist.merge(snap.totalHist[kDemand]);
            report.stormFinished += window.demandFinished;
        } else {
            steadyHist.merge(snap.totalHist[kDemand]);
            report.steadyFinished += window.demandFinished;
            ++steadyWindows;
        }
        report.windows.push_back(window);
        ++w;
    }

    // Tail: maxWindows cut the run short — drain the remainder in one
    // unbounded slice so CUs retire and end-of-run checks hold. The
    // tail is recorded but excluded from steady-state aggregates (its
    // span is not window-sized).
    if (!eq.empty()) {
        const Tick start = eq.now();
        eq.run();
        const LatencyWindow snap = scoreboard->snapshotAndReset();
        ServeWindow window =
            summarize(snap, w, start, eq.now(), false, true);
        accountPhase(window, snap);
        report.windows.push_back(window);
    }

    if (serveCfg.hostStats) {
        system.recordHostSeconds(
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - wallStart)
                .count());
    }

    report.stormShifts = storm.shifts();
    report.steadyP50 = steadyHist.percentile(50);
    report.steadyP99 = steadyHist.percentile(99);
    report.steadyP999 = steadyHist.percentile(99.9);
    report.steadyMax = steadyHist.max();
    report.stormP50 = stormHist.percentile(50);
    report.stormP99 = stormHist.percentile(99);
    report.stormP999 = stormHist.percentile(99.9);
    if (steadyWindows > 0) {
        report.steadyThroughputPerKcycle =
            1000.0 * static_cast<double>(report.steadyFinished) /
            (static_cast<double>(steadyWindows) *
             static_cast<double>(params.windowCycles));
    }
    if (report.stormP999 > 0 && report.steadyP999 > 0) {
        report.tailAmplification =
            static_cast<double>(report.stormP999) /
            static_cast<double>(report.steadyP999);
    }

    // Degraded-mode accounting: how long the fault domain took to
    // re-home the dead device's working set, and what the tail looked
    // like before, during, and after.
    const DriverStats &ds = system.driver().stats();
    report.unplugs = ds.gpusUnplugged.value();
    report.reattaches = ds.gpusReattached.value();
    for (const RecoveryWindow &rw : recoveries) {
        const Tick rwEnd = rw.endTick ? rw.endTick : eq.now();
        report.recoveryTimeCycles += rwEnd - rw.startTick;
        report.rehomedPages += rw.rehomedPages;
        report.promotedReplicas += rw.promotedReplicas;
        report.abortedMigrations += rw.abortedMigrations;
    }
    report.abortedTokens =
        scoreboard->aborted(RequestKind::Demand) +
        scoreboard->aborted(RequestKind::Invalidation);
    report.preLossP99 = preHist.percentile(99);
    report.duringRecoveryP99 = duringHist.percentile(99);
    report.postRecoveryP99 = postHist.percentile(99);

    report.results = system.finish(workload.name());
    return report;
}

std::string
ServeReport::toJson() const
{
    std::ostringstream os;
    os << "{\"bench\":\"serve\",\"schema\":1"
       << ",\"app\":\"" << jsonEscape(app) << "\""
       << ",\"scheme\":\"" << jsonEscape(scheme) << "\""
       << ",\"gpus\":" << gpus << ",\"scale\":" << fmtDouble(scale)
       << ",\"seed\":" << seed
       << ",\"windowCycles\":" << params.windowCycles
       << ",\"warmupWindows\":" << params.warmupWindows
       << ",\"maxWindows\":" << params.maxWindows
       << ",\"stormEvery\":" << params.stormEvery
       << ",\"stormShiftPages\":" << params.stormShiftPages;
    if (!params.unplugPlan.empty())
        os << ",\"unplugPlan\":\"" << jsonEscape(params.unplugPlan)
           << "\"";
    os << ",\"warmupEndTick\":" << warmupEndTick
       << ",\"warmupFinished\":" << warmupFinished
       << ",\"stormShifts\":" << stormShifts;

    os << ",\"metrics\":{"
       << "\"steadyP50\":" << steadyP50
       << ",\"steadyP99\":" << steadyP99
       << ",\"steadyP999\":" << steadyP999
       << ",\"steadyMax\":" << steadyMax
       << ",\"stormP50\":" << stormP50
       << ",\"stormP99\":" << stormP99
       << ",\"stormP999\":" << stormP999
       << ",\"tailAmplification\":" << fmtDouble(tailAmplification)
       << ",\"steadyThroughputPerKcycle\":"
       << fmtDouble(steadyThroughputPerKcycle)
       << ",\"steadyFinished\":" << steadyFinished
       << ",\"stormFinished\":" << stormFinished;
    // Degraded-mode keys exist only in unplug runs so that fault-free
    // artifacts stay byte-identical to the committed baselines.
    if (unplugs > 0) {
        os << ",\"unplugs\":" << unplugs
           << ",\"reattaches\":" << reattaches
           << ",\"recoveryTimeCycles\":" << recoveryTimeCycles
           << ",\"rehomedPages\":" << rehomedPages
           << ",\"promotedReplicas\":" << promotedReplicas
           << ",\"abortedMigrations\":" << abortedMigrations
           << ",\"abortedTokens\":" << abortedTokens
           << ",\"preLossFinished\":" << preLossFinished
           << ",\"duringRecoveryFinished\":" << duringRecoveryFinished
           << ",\"postRecoveryFinished\":" << postRecoveryFinished
           << ",\"preLossP99\":" << preLossP99
           << ",\"duringRecoveryP99\":" << duringRecoveryP99
           << ",\"postRecoveryP99\":" << postRecoveryP99;
    }
    os << ",\"execTicks\":"
       << static_cast<std::uint64_t>(results.execTicks)
       << ",\"migrations\":" << results.migrations
       << ",\"invalSent\":" << results.invalSent
       << ",\"eventsExecuted\":" << results.eventsExecuted
       << ",\"hostSeconds\":" << fmtDouble(results.hostSeconds)
       << ",\"eventsPerSec\":" << fmtDouble(results.eventsPerSec)
       << "}";

    os << ",\"windows\":[";
    for (std::size_t i = 0; i < windows.size(); ++i) {
        const ServeWindow &w = windows[i];
        os << (i ? "," : "") << "{\"i\":" << w.index
           << ",\"start\":" << w.startTick << ",\"end\":" << w.endTick
           << ",\"storm\":" << (w.storm ? 1 : 0)
           << ",\"tail\":" << (w.tail ? 1 : 0)
           << ",\"n\":" << w.demandFinished
           << ",\"cycles\":" << w.demandCycles
           << ",\"inval\":" << w.invalFinished << ",\"p50\":" << w.p50
           << ",\"p99\":" << w.p99 << ",\"p999\":" << w.p999
           << ",\"max\":" << w.max;
        if (unplugs > 0)
            os << ",\"phase\":"
               << static_cast<std::uint32_t>(w.phase);
        os << "}";
    }
    os << "]}";
    return os.str();
}

const std::vector<ServeSpec> &
allServeSpecs()
{
    static const std::vector<ServeSpec> registry = {
        // CI-sized: small enough for every PR, hot enough that storm
        // windows visibly amplify the tail. The committed baseline
        // bench/baselines/BENCH_serve.json is generated from this
        // preset (see DESIGN.md "Perf trajectory").
        {"smoke",
         "CI serve smoke: KM under IDYLL, storms every 2nd window",
         "KM", "idyll", 4, 0.5,
         {20000, 2, 12, 2, 0, ""}},
        // Nightly-sized: full-scale workload, longer windows, a
        // storm every 3rd window, free-running to completion.
        {"steady",
         "nightly steady-state: KM under IDYLL at full scale",
         "KM", "idyll", 8, 1.0,
         {50000, 4, 0, 3, 0, ""}},
        // Storm-free control run (quiescent trajectory).
        {"quiet",
         "storm-free control: PR under IDYLL, no hot-set shifts",
         "PR", "idyll", 4, 0.5,
         {20000, 2, 12, 0, 0, ""}},
        // Device-loss drill: one GPU unplugs mid-measurement, the
        // oracle shadow-checks the whole recovery, and the artifact
        // reports pre-loss / during-recovery / post-recovery p99 plus
        // recovery time and re-homed page counts.
        {"degraded",
         "device-loss drill: KM under IDYLL, gpu 1 unplugs mid-run",
         "KM", "idyll", 4, 0.5,
         {20000, 2, 12, 0, 0, "g1@150000"}},
    };
    return registry;
}

std::optional<ServeSpec>
serveSpecByName(const std::string &name)
{
    for (const ServeSpec &spec : allServeSpecs())
        if (spec.name == name)
            return spec;
    return std::nullopt;
}

SystemConfig
serveSpecConfig(const ServeSpec &spec)
{
    auto preset = schemeByName(spec.scheme);
    if (!preset)
        fatal("serve spec '", spec.name, "' names unknown scheme '",
              spec.scheme, "'");
    SystemConfig cfg = scaledForSim(*preset);
    if (spec.gpus)
        cfg.numGpus = spec.gpus;
    cfg.hostStats = true; // the artifact folds in events/sec
    return cfg;
}

} // namespace idyll
