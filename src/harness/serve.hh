/**
 * @file
 * Steady-state SLO serve harness.
 *
 * The paper figures judge schemes by end-of-run averages; a
 * production serving stack is judged by windowed tail latency under
 * sustained load. runServe() drives one simulation the way such a
 * stack is operated: run the workload past a warmup horizon, then
 * carve steady state into fixed-length measurement windows and read
 * per-window translation-latency percentiles (p50/p99/p99.9 from the
 * LatencyScoreboard HDR histograms via snapshotAndReset()), windowed
 * throughput, and — with a storm schedule — tail amplification when
 * the globally shared hot pages are periodically shifted onto cold
 * pages (a migration storm: a burst of far faults, migrations, and
 * PTE invalidations).
 *
 * The harness drives EventQueue::runUntil() in window-sized slices
 * and mutates the StormController only between slices, so a serve
 * run with a fixed seed is fully deterministic and bit-identical no
 * matter which thread drives it.
 *
 * ServeReport::toJson() emits the BENCH_*.json schema documented in
 * DESIGN.md; tools/idyll_bench_diff compares two such artifacts and
 * the CI perf-trajectory job gates merges on the committed baselines
 * under bench/baselines/.
 */

#ifndef IDYLL_HARNESS_SERVE_HH
#define IDYLL_HARNESS_SERVE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "harness/results.hh"
#include "sim/config.hh"
#include "sim/latency.hh"
#include "sim/types.hh"

namespace idyll
{

/** Windowing and storm-injection knobs for one serve run. */
struct ServeParams
{
    /** Measurement window length in cycles. */
    Cycles windowCycles = 20000;

    /** Windows discarded before measurement begins. */
    std::uint32_t warmupWindows = 2;

    /**
     * Measured windows before the run is allowed to drain freely
     * (0 = keep windowing until the workload finishes).
     */
    std::uint32_t maxWindows = 0;

    /**
     * Shift the hot set at the start of every Nth measured window
     * (0 = no storms). The first storm lands on window N-1, so at
     * least one quiescent window precedes it.
     */
    std::uint32_t stormEvery = 0;

    /** Pages to rotate the hot set by per storm (0 = the app's
     *  hotPages, i.e. a full displacement onto cold pages). */
    std::uint64_t stormShiftPages = 0;

    /**
     * GPU hot-unplug schedule (parseUnplugPlan grammar), e.g.
     * "g1@150000". Non-empty overrides cfg.integrity.unplugPlan and
     * forces the translation oracle on: a degraded serve run is
     * always shadow-checked.
     */
    std::string unplugPlan;
};

/** Which fault-domain phase a measurement window fell into. */
enum class ServePhase : std::uint8_t
{
    PreLoss = 0,        ///< before the first unplug
    DuringRecovery = 1, ///< overlaps an open/active recovery window
    PostRecovery = 2,   ///< after every recovery completed
};

/** One measurement window's demand-translation SLO numbers. */
struct ServeWindow
{
    std::uint32_t index = 0;
    Tick startTick = 0;
    Tick endTick = 0;
    bool storm = false; ///< a hot-set shift landed at this window's start
    bool tail = false;  ///< free-running drain after maxWindows (excluded
                        ///< from steady-state aggregates)
    std::uint64_t demandFinished = 0;
    std::uint64_t demandCycles = 0;
    std::uint64_t invalFinished = 0;
    std::uint64_t p50 = 0;
    std::uint64_t p99 = 0;
    std::uint64_t p999 = 0;
    std::uint64_t max = 0;
    /** Fault-domain phase (serialized only when the run unplugged). */
    ServePhase phase = ServePhase::PreLoss;
};

/** Everything one serve run produces. */
struct ServeReport
{
    std::string app;
    std::string scheme;
    std::uint32_t gpus = 0;
    double scale = 1.0;
    std::uint64_t seed = 0;
    ServeParams params;

    /** Warmup horizon actually applied (ticks). */
    Tick warmupEndTick = 0;

    /** Demand tokens finished (and discarded) during warmup. */
    std::uint64_t warmupFinished = 0;

    /** Measured windows in order (tail window last, when present). */
    std::vector<ServeWindow> windows;

    /** Hot-set shifts applied over the run. */
    std::uint64_t stormShifts = 0;

    // --- steady-state aggregates (quiescent measured windows) -------
    std::uint64_t steadyFinished = 0;
    std::uint64_t steadyP50 = 0;
    std::uint64_t steadyP99 = 0;
    std::uint64_t steadyP999 = 0;
    std::uint64_t steadyMax = 0;
    double steadyThroughputPerKcycle = 0.0;

    // --- storm-window aggregates ------------------------------------
    std::uint64_t stormFinished = 0;
    std::uint64_t stormP50 = 0;
    std::uint64_t stormP99 = 0;
    std::uint64_t stormP999 = 0;

    /** stormP999 / steadyP999 (0 when either side is empty). */
    double tailAmplification = 0.0;

    // --- degraded-mode accounting (unplug runs only) -----------------
    // Serialized into the BENCH artifact only when unplugs > 0, so a
    // fault-free run's JSON stays byte-identical to the committed
    // baselines.
    std::uint64_t unplugs = 0;
    std::uint64_t reattaches = 0;
    /** Summed quarantine-to-last-re-home span over all recoveries. */
    std::uint64_t recoveryTimeCycles = 0;
    std::uint64_t rehomedPages = 0;
    std::uint64_t promotedReplicas = 0;
    std::uint64_t abortedMigrations = 0;
    /** Latency tokens finalized `aborted` (excluded from percentiles). */
    std::uint64_t abortedTokens = 0;
    std::uint64_t preLossFinished = 0;
    std::uint64_t duringRecoveryFinished = 0;
    std::uint64_t postRecoveryFinished = 0;
    std::uint64_t preLossP99 = 0;
    std::uint64_t duringRecoveryP99 = 0;
    std::uint64_t postRecoveryP99 = 0;

    /** Full end-of-run results (host events/sec when hostStats). */
    SimResults results;

    /**
     * The BENCH_*.json artifact: a "bench"/"schema" header, the run
     * configuration, a flat "metrics" object (what idyll_bench_diff
     * compares), and the per-window series. Sim metrics are
     * deterministic for a fixed seed; host metrics (hostSeconds,
     * eventsPerSec) vary run to run and are excluded from baseline
     * diffs by the CI job. See DESIGN.md "BENCH schema".
     */
    std::string toJson() const;
};

/**
 * Run @p app under @p cfg in serve mode. The config is used as given
 * except that the latency scoreboard is forced on (windowed
 * percentiles need it). The workload's StormController is owned by
 * the harness; storms fire only when params.stormEvery > 0.
 */
ServeReport runServe(const std::string &app, const SystemConfig &cfg,
                     double scale, const ServeParams &params);

/** A registered, named serve configuration (CI / nightly presets). */
struct ServeSpec
{
    std::string name;        ///< e.g. "smoke"
    std::string description; ///< what the preset is for
    std::string app;
    std::string scheme; ///< a name for schemeByName()
    std::uint32_t gpus = 0; ///< 0 = scheme default
    double scale = 1.0;
    ServeParams params;
};

/** Every registered serve preset. */
const std::vector<ServeSpec> &allServeSpecs();

/** Look a serve preset up by name (empty optional = unknown). */
std::optional<ServeSpec> serveSpecByName(const std::string &name);

/**
 * Resolve @p spec's scheme name to its simulation-scaled config, with
 * its GPU count and host stats on, for runServe(). fatal() on an
 * unknown scheme name.
 */
SystemConfig serveSpecConfig(const ServeSpec &spec);

} // namespace idyll

#endif // IDYLL_HARNESS_SERVE_HH
