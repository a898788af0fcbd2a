/**
 * @file
 * Tests for the steady-state serve harness and the BENCH artifact
 * diff path: warmup exclusion and the windowed-sum == end-of-run
 * totals identity, scoreboard epoch boundaries (span-sum invariant
 * across snapshotAndReset), storm-injector determinism and effect,
 * thread-independence of a serve run, sampler/window epoch alignment,
 * and bench_compare threshold / exit semantics.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "harness/bench_compare.hh"
#include "harness/cli.hh"
#include "harness/runner.hh"
#include "harness/serve.hh"
#include "harness/system.hh"
#include "sim/latency.hh"
#include "sim/sampler.hh"
#include "workloads/workload.hh"

namespace idyll
{
namespace
{

SystemConfig
serveTestConfig()
{
    SystemConfig cfg = scaledForSim(SystemConfig::idyllFull());
    cfg.numGpus = 4;
    cfg.latency.enabled = true;
    return cfg;
}

// --- warmup exclusion + totals identity --------------------------------

TEST(Serve, WindowedCountsSumToUnwindowedRun)
{
    // Without storms the windowed drive is pure observation: the same
    // requests finish at the same ticks as in a plain run, so warmup +
    // windows + tail must add up to the plain run's demand count, and
    // execution must end on the same tick.
    const SystemConfig cfg = serveTestConfig();
    const double scale = 0.25;

    MultiGpuSystem plain(cfg);
    const SimResults plainResults =
        plain.run(Workload::byName("pingpong", scale));

    ServeParams params;
    params.windowCycles = 10000;
    params.warmupWindows = 2;
    const ServeReport report =
        runServe("pingpong", cfg, scale, params);

    std::uint64_t windowed = report.warmupFinished;
    for (const ServeWindow &w : report.windows)
        windowed += w.demandFinished;
    EXPECT_EQ(windowed, plainResults.latDemandCount);
    EXPECT_EQ(report.results.execTicks, plainResults.execTicks);
    EXPECT_EQ(report.results.migrations, plainResults.migrations);
    EXPECT_GT(report.warmupFinished, 0u);
}

TEST(Serve, WarmupWindowsAreExcludedFromSteadyAggregates)
{
    const SystemConfig cfg = serveTestConfig();
    ServeParams params;
    params.windowCycles = 10000;
    params.warmupWindows = 3;
    const ServeReport report =
        runServe("pingpong", cfg, 0.25, params);

    EXPECT_EQ(report.warmupEndTick, 30000u);
    ASSERT_FALSE(report.windows.empty());
    // Measured windows start exactly at the warmup horizon.
    EXPECT_EQ(report.windows.front().startTick, 30000u);
    // Steady aggregates count only quiescent measured windows.
    std::uint64_t steady = 0;
    for (const ServeWindow &w : report.windows)
        if (!w.storm && !w.tail)
            steady += w.demandFinished;
    EXPECT_EQ(steady, report.steadyFinished);
    EXPECT_GT(report.steadyP99, 0u);
    EXPECT_GE(report.steadyP99, report.steadyP50);
    EXPECT_GE(report.steadyP999, report.steadyP99);
}

// --- scoreboard epoch boundaries ---------------------------------------

TEST(Serve, SnapshotPreservesSpanSumAcrossWindowBoundary)
{
    // A token begun before the epoch boundary and finished after it
    // must keep the exact span-sum invariant and land (with its full
    // end-to-end latency) in the window where it finishes.
    LatencyScoreboard sb(1);
    std::string violation;
    sb.setViolationHandler(
        [&](const std::string &msg) { violation = msg; });

    sb.begin(0, RequestKind::Demand, 0, 42, 100);
    sb.enter(0, RequestKind::Demand, 0, 42, LatencyPhase::PtwQueue, 130);

    const LatencyWindow before = sb.snapshotAndReset();
    const auto kDemand = static_cast<std::size_t>(RequestKind::Demand);
    EXPECT_EQ(before.finished[kDemand], 0u);

    sb.enter(0, RequestKind::Demand, 0, 42, LatencyPhase::LocalWalk, 180);
    sb.finish(0, RequestKind::Demand, 0, 42, 250);
    EXPECT_TRUE(violation.empty()) << violation;

    const LatencyWindow after = sb.snapshotAndReset();
    EXPECT_EQ(after.finished[kDemand], 1u);
    EXPECT_EQ(after.totalCycles[kDemand], 150u); // 250 - 100
    std::uint64_t phaseSum = 0;
    for (std::uint32_t p = 0; p < kNumLatencyPhases; ++p)
        phaseSum += after.phaseCycles[kDemand][p];
    EXPECT_EQ(phaseSum, 150u);
    EXPECT_EQ(after.totalHist[kDemand].count(), 1u);

    // Nothing left for a third window.
    const LatencyWindow empty = sb.snapshotAndReset();
    EXPECT_EQ(empty.finished[kDemand], 0u);
    EXPECT_EQ(empty.totalHist[kDemand].count(), 0u);
}

TEST(Serve, WindowMergeIsExact)
{
    LatencyScoreboard sb(1);
    sb.begin(0, RequestKind::Demand, 0, 1, 0);
    sb.finish(0, RequestKind::Demand, 0, 1, 40);
    LatencyWindow a = sb.snapshotAndReset();

    sb.begin(0, RequestKind::Demand, 0, 2, 100);
    sb.finish(0, RequestKind::Demand, 0, 2, 180);
    const LatencyWindow b = sb.snapshotAndReset();

    a.merge(b);
    const auto kDemand = static_cast<std::size_t>(RequestKind::Demand);
    EXPECT_EQ(a.finished[kDemand], 2u);
    EXPECT_EQ(a.totalCycles[kDemand], 120u);
    EXPECT_EQ(a.totalHist[kDemand].count(), 2u);
    EXPECT_EQ(a.totalHist[kDemand].max(), 80u);
}

// --- storm injector ----------------------------------------------------

TEST(Serve, StormControllerShiftsWrapAroundFootprint)
{
    StormController storm;
    EXPECT_EQ(storm.hotOffset(), 0u);
    storm.shift(300, 512);
    EXPECT_EQ(storm.hotOffset(), 300u);
    storm.shift(300, 512);
    EXPECT_EQ(storm.hotOffset(), 88u); // (300 + 300) % 512
    EXPECT_EQ(storm.shifts(), 2u);
}

TEST(Serve, StormRunsAreDeterministic)
{
    const SystemConfig cfg = serveTestConfig();
    ServeParams params;
    params.windowCycles = 10000;
    params.warmupWindows = 1;
    params.stormEvery = 2;

    const ServeReport a = runServe("pingpong", cfg, 0.25, params);
    const ServeReport b = runServe("pingpong", cfg, 0.25, params);
    EXPECT_EQ(a.toJson(), b.toJson());
    EXPECT_GT(a.stormShifts, 0u);
}

TEST(Serve, StormsPerturbTheRunAndQuiescenceDoesNot)
{
    const SystemConfig cfg = serveTestConfig();
    ServeParams quiet;
    quiet.windowCycles = 10000;
    quiet.warmupWindows = 1;

    ServeParams stormy = quiet;
    stormy.stormEvery = 2;

    const ServeReport q = runServe("pingpong", cfg, 0.25, quiet);
    const ServeReport s = runServe("pingpong", cfg, 0.25, stormy);

    // A stormless serve drive observes the exact run a plain drive
    // produces; hot-set shifts change the access stream, so the
    // stormy run must diverge.
    EXPECT_EQ(q.stormShifts, 0u);
    EXPECT_NE(s.results.execTicks, q.results.execTicks);
    EXPECT_GT(s.stormP999, 0u);
    EXPECT_GT(s.tailAmplification, 0.0);
}

TEST(Serve, ReportIsIdenticalWhenDrivenFromAnotherThread)
{
    // The windowed drive mutates no global state: a serve run on a
    // worker thread is bit-identical to one on the main thread.
    const SystemConfig cfg = serveTestConfig();
    ServeParams params;
    params.windowCycles = 10000;
    params.warmupWindows = 1;
    params.stormEvery = 3;

    const ServeReport main = runServe("pingpong", cfg, 0.25, params);
    std::string fromThread;
    std::thread worker([&] {
        fromThread = runServe("pingpong", cfg, 0.25, params).toJson();
    });
    worker.join();
    EXPECT_EQ(main.toJson(), fromThread);
}

// --- sampler / window epoch alignment ----------------------------------

TEST(Serve, SamplerEpochsAlignWithWindowBoundaries)
{
    // With the sampler period equal to the window length, every
    // sample lands exactly on a window boundary: after each runUntil
    // slice the newest record's tick is the slice boundary itself.
    SystemConfig cfg = serveTestConfig();
    cfg.sampler.everyCycles = 5000;

    MultiGpuSystem system(cfg);
    system.launch(Workload::byName("pingpong", 0.25));
    EventQueue &eq = system.eventQueue();
    const IntervalSampler *sampler = system.sampler();
    ASSERT_NE(sampler, nullptr);

    std::uint64_t prevSamples = 0;
    Tick cursor = 0;
    for (int w = 0; w < 4 && !eq.empty(); ++w) {
        cursor += 5000;
        eq.runUntil(cursor);
        if (eq.empty())
            break;
        EXPECT_EQ(sampler->lastTick(), cursor);
        EXPECT_EQ(sampler->lastTick() % cfg.sampler.everyCycles, 0u);
        EXPECT_GT(sampler->samplesTaken(), prevSamples);
        prevSamples = sampler->samplesTaken();
    }
    eq.run();
    system.finish("pingpong");
}

// --- CLI surface --------------------------------------------------------

TEST(Serve, CliParsesServeFlags)
{
    const CliParse parsed = parseCli(
        {"--app", "KM", "--scheme", "idyll", "--serve",
         "--serve-window", "12345", "--serve-warmup", "3",
         "--serve-windows", "7", "--storm-every", "2", "--storm-shift",
         "96", "--bench-out", "out.json"});
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    const CliOptions &opts = *parsed.options;
    EXPECT_TRUE(opts.serve);
    EXPECT_EQ(opts.serveWindow, 12345u);
    EXPECT_EQ(opts.serveWarmup, 3u);
    EXPECT_EQ(opts.serveWindows, 7u);
    EXPECT_EQ(opts.stormEvery, 2u);
    EXPECT_EQ(opts.stormShift, 96u);
    EXPECT_EQ(opts.benchOut, "out.json");
}

TEST(Serve, SpecRegistryResolvesNames)
{
    EXPECT_FALSE(allServeSpecs().empty());
    EXPECT_TRUE(serveSpecByName("smoke").has_value());
    EXPECT_TRUE(serveSpecByName("degraded").has_value());
    EXPECT_FALSE(serveSpecByName("no-such-preset").has_value());
    for (const ServeSpec &spec : allServeSpecs())
        EXPECT_TRUE(schemeByName(spec.scheme).has_value())
            << spec.name;
}

TEST(Serve, CliParsesUnplugAndChaosFlags)
{
    const CliParse parsed = parseCli(
        {"--unplug", "g1@60000/140000", "--chaos", "9,30",
         "--chaos-trials", "5", "--chaos-out", "chaos.json"});
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    const CliOptions &opts = *parsed.options;
    EXPECT_EQ(opts.config.integrity.unplugPlan, "g1@60000/140000");
    EXPECT_TRUE(opts.chaos);
    EXPECT_EQ(opts.chaosSeed, 9u);
    EXPECT_DOUBLE_EQ(opts.chaosSeconds, 30.0);
    EXPECT_EQ(opts.chaosTrials, 5u);
    EXPECT_EQ(opts.chaosOut, "chaos.json");

    EXPECT_FALSE(parseCli({"--chaos", "banana"}).ok());
    EXPECT_FALSE(parseCli({"--chaos", "9"}).ok());
}

TEST(Serve, FaultedStormyRunsAreDeterministicAndDupsAreNeutral)
{
    // A serve run that composes storms with a message-fault plan must
    // stay bit-deterministic for a fixed seed; and a plan of pure
    // duplicated acks (absorbed by the driver, no response traffic)
    // must not perturb the windowed trajectory at all — its artifact
    // is byte-identical to the fault-free one.
    SystemConfig cfg = serveTestConfig();
    cfg.integrity.oracle = true;
    ServeParams params;
    params.windowCycles = 10000;
    params.warmupWindows = 1;
    params.maxWindows = 6;
    params.stormEvery = 2;

    const std::string clean =
        runServe("KM", cfg, 0.1, params).toJson();

    SystemConfig dup = cfg;
    dup.integrity.faultPlan = "ack.dup@0.5";
    EXPECT_EQ(runServe("KM", dup, 0.1, params).toJson(), clean);

    SystemConfig perturbing = cfg;
    perturbing.integrity.faultPlan = "inval.delay=800@0.3,ack.drop@0.2";
    perturbing.integrity.invalRetryTimeout = 20000;
    const std::string first =
        runServe("KM", perturbing, 0.1, params).toJson();
    const std::string second =
        runServe("KM", perturbing, 0.1, params).toJson();
    EXPECT_EQ(first, second);
    EXPECT_NE(first, clean); // the drops really did perturb timing
}

// --- bench_compare ------------------------------------------------------

BenchMetrics
metrics(std::vector<std::pair<std::string, double>> values)
{
    BenchMetrics m;
    m.bench = "serve";
    m.schema = 1;
    m.values = std::move(values);
    return m;
}

TEST(BenchCompare, JsonRoundTrips)
{
    const BenchMetrics m = metrics(
        {{"steadyP99", 11776}, {"eventsPerSec", 2193279.9012962123}});
    const auto parsed = parseBenchJson(benchMetricsToJson(m));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->bench, "serve");
    EXPECT_EQ(parsed->schema, 1);
    ASSERT_EQ(parsed->values.size(), 2u);
    EXPECT_EQ(parsed->values[0].first, "steadyP99");
    EXPECT_DOUBLE_EQ(*parsed->get("eventsPerSec"),
                     2193279.9012962123);
    EXPECT_FALSE(parsed->get("absent").has_value());
}

TEST(BenchCompare, ServeArtifactParses)
{
    // A real serve artifact (hostStats off keeps this fast) must
    // parse back into the metrics the diff gate compares.
    const SystemConfig cfg = serveTestConfig();
    ServeParams params;
    params.windowCycles = 10000;
    params.warmupWindows = 1;
    const ServeReport report =
        runServe("pingpong", cfg, 0.25, params);
    const auto parsed = parseBenchJson(report.toJson());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->bench, "serve");
    EXPECT_EQ(*parsed->get("steadyP99"),
              static_cast<double>(report.steadyP99));
    EXPECT_EQ(*parsed->get("steadyFinished"),
              static_cast<double>(report.steadyFinished));
}

TEST(BenchCompare, IdenticalArtifactsPass)
{
    const BenchMetrics m =
        metrics({{"steadyP99", 100}, {"eventsPerSec", 5000}});
    DiffOptions opt;
    const DiffReport report = diffBenchMetrics(m, m, opt);
    EXPECT_FALSE(report.breached);
    EXPECT_EQ(report.deltas.size(), 2u);
    EXPECT_TRUE(report.missing.empty());
}

TEST(BenchCompare, ThroughputDropBeyondThresholdBreaches)
{
    // A 40% events/sec drop must breach a 30% threshold; a 25% drop
    // must not.
    const BenchMetrics base = metrics({{"eventsPerSec", 1000}});
    DiffOptions opt;
    opt.thresholds["eventsPerSec"] = 30.0;

    const DiffReport bad = diffBenchMetrics(
        base, metrics({{"eventsPerSec", 600}}), opt);
    EXPECT_TRUE(bad.breached);
    ASSERT_EQ(bad.deltas.size(), 1u);
    EXPECT_TRUE(bad.deltas[0].regressed);
    EXPECT_TRUE(bad.deltas[0].higherBetter);

    const DiffReport ok = diffBenchMetrics(
        base, metrics({{"eventsPerSec", 750}}), opt);
    EXPECT_FALSE(ok.breached);
}

TEST(BenchCompare, ShardThroughputVariantsAreHigherIsBetter)
{
    // The shard scaling bench emits per-shard-count throughput
    // metrics; they must classify as higher-is-better like plain
    // eventsPerSec, so a faster runner never trips the gate and a
    // 40% drop does.
    for (const char *name : {"eventsPerSecShards1",
                             "eventsPerSecShards4",
                             "eventsPerSecShards8"})
        EXPECT_TRUE(metricHigherIsBetter(name)) << name;

    const BenchMetrics base =
        metrics({{"eventsPerSecShards8", 1000}});
    DiffOptions opt;
    opt.defaultThresholdPct = 30.0;
    EXPECT_TRUE(diffBenchMetrics(
                    base, metrics({{"eventsPerSecShards8", 600}}), opt)
                    .breached);
    EXPECT_FALSE(
        diffBenchMetrics(
            base, metrics({{"eventsPerSecShards8", 2000}}), opt)
            .breached);
}

TEST(BenchCompare, LatencyRiseBeyondThresholdBreaches)
{
    // +20% p99 must breach a 15% threshold; +10% must not.
    const BenchMetrics base = metrics({{"steadyP99", 1000}});
    DiffOptions opt;
    opt.defaultThresholdPct = 15.0;

    const DiffReport bad = diffBenchMetrics(
        base, metrics({{"steadyP99", 1200}}), opt);
    EXPECT_TRUE(bad.breached);

    const DiffReport ok = diffBenchMetrics(
        base, metrics({{"steadyP99", 1100}}), opt);
    EXPECT_FALSE(ok.breached);
}

TEST(BenchCompare, ImprovementsNeverBreach)
{
    // Latency halved and throughput doubled are both improvements,
    // however large.
    const BenchMetrics base =
        metrics({{"steadyP99", 1000}, {"eventsPerSec", 1000}});
    const BenchMetrics better =
        metrics({{"steadyP99", 500}, {"eventsPerSec", 2000}});
    DiffOptions opt;
    opt.defaultThresholdPct = 5.0;
    const DiffReport report = diffBenchMetrics(base, better, opt);
    EXPECT_FALSE(report.breached);
}

TEST(BenchCompare, MissingMetricIsABreachAndSkipIsNot)
{
    const BenchMetrics base =
        metrics({{"steadyP99", 100}, {"hostSeconds", 2.5}});
    const BenchMetrics cur = metrics({{"steadyP99", 100}});

    DiffOptions opt;
    const DiffReport broken = diffBenchMetrics(base, cur, opt);
    EXPECT_TRUE(broken.breached);
    ASSERT_EQ(broken.missing.size(), 1u);
    EXPECT_EQ(broken.missing[0], "hostSeconds");

    opt.skip.insert("hostSeconds");
    const DiffReport skipped = diffBenchMetrics(base, cur, opt);
    EXPECT_FALSE(skipped.breached);
    EXPECT_TRUE(skipped.missing.empty());
}

TEST(BenchCompare, ZeroBaselineHandling)
{
    const BenchMetrics base = metrics({{"migrations", 0}});
    DiffOptions opt;
    EXPECT_FALSE(
        diffBenchMetrics(base, metrics({{"migrations", 0}}), opt)
            .breached);
    EXPECT_TRUE(
        diffBenchMetrics(base, metrics({{"migrations", 7}}), opt)
            .breached);
}

TEST(BenchCompare, GoogleBenchmarkAdapter)
{
    const std::string gbench = R"({
      "benchmarks": [
        {
          "name": "BM_Other/1",
          "items_per_second": 1.0e6
        },
        {
          "name": "BM_EventQueuePingPong/4",
          "real_time": 123.4,
          "items_per_second": 5.5e7
        }
      ]
    })";
    const auto m =
        parseGoogleBenchmark(gbench, "BM_EventQueuePingPong");
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->bench, "events_per_sec");
    EXPECT_DOUBLE_EQ(*m->get("eventsPerSec"), 5.5e7);
    EXPECT_FALSE(
        parseGoogleBenchmark(gbench, "BM_Nothing").has_value());
}

TEST(BenchCompare, GoogleBenchmarkAdapterTakesBestRepetition)
{
    // --benchmark_repetitions output: the best repetition wins, and
    // the aggregates (whose names also match the prefix) are skipped.
    const std::string gbench = R"({
      "benchmarks": [
        {"name": "BM_EventQueueDeepHeap/4096", "run_type": "iteration",
         "items_per_second": 2.0e7},
        {"name": "BM_EventQueueDeepHeap/4096", "run_type": "iteration",
         "items_per_second": 2.6e7},
        {"name": "BM_EventQueueDeepHeap/4096", "run_type": "iteration",
         "items_per_second": 1.1e7},
        {"name": "BM_EventQueueDeepHeap/4096_mean",
         "run_type": "aggregate", "items_per_second": 9.9e7},
        {"name": "BM_EventQueueDeepHeap/16384", "run_type": "iteration",
         "items_per_second": 5.0e7}
      ]
    })";
    const auto m =
        parseGoogleBenchmark(gbench, "BM_EventQueueDeepHeap/4096");
    ASSERT_TRUE(m.has_value());
    EXPECT_DOUBLE_EQ(*m->get("eventsPerSec"), 2.6e7);
}

} // namespace
} // namespace idyll
