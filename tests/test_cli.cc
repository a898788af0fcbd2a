/**
 * @file
 * Unit tests for the idyll_sim command-line parser.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <tuple>

#include "harness/cli.hh"
#include "harness/parallel.hh"
#include "harness/runner.hh"

namespace idyll
{
namespace
{

CliOptions
mustParse(std::vector<std::string> args)
{
    CliParse parsed = parseCli(args);
    EXPECT_TRUE(parsed.ok()) << parsed.error;
    return parsed.options.value_or(CliOptions{});
}

TEST(Cli, DefaultsAreScaledBaseline)
{
    CliOptions opts = mustParse({});
    EXPECT_EQ(opts.app, "KM");
    EXPECT_EQ(opts.scheme, "baseline");
    EXPECT_EQ(opts.config.accessCounterThreshold, kScaledThreshold256);
    EXPECT_EQ(opts.config.prepopulate, Prepopulate::HomeShard);
}

TEST(Cli, RawSkipsSimulationScaling)
{
    CliOptions opts = mustParse({"--raw"});
    EXPECT_EQ(opts.config.accessCounterThreshold, 256u);
    EXPECT_EQ(opts.config.prepopulate, Prepopulate::None);
}

TEST(Cli, SchemeSelection)
{
    EXPECT_EQ(mustParse({"--scheme", "idyll"}).config.invalApply,
              InvalApply::Lazy);
    EXPECT_EQ(mustParse({"--scheme", "idyll"}).config.invalFilter,
              InvalFilter::InPteDirectory);
    EXPECT_TRUE(mustParse({"--scheme", "replication"})
                    .config.pageReplication);
    EXPECT_TRUE(
        mustParse({"--scheme", "idyll+transfw"}).config.transFw.enabled);
    EXPECT_FALSE(parseCli({"--scheme", "nope"}).ok());
}

TEST(Cli, NumericOverrides)
{
    CliOptions opts = mustParse(
        {"--gpus", "8", "--cus", "32", "--walkers", "16", "--l2tlb",
         "2048", "--threshold", "12", "--dir-bits", "4", "--seed",
         "99", "--scale", "0.5"});
    EXPECT_EQ(opts.config.numGpus, 8u);
    EXPECT_EQ(opts.config.cusPerGpu, 32u);
    EXPECT_EQ(opts.config.gmmu.walkerThreads, 16u);
    EXPECT_EQ(opts.config.l2Tlb.entries, 2048u);
    EXPECT_EQ(opts.config.accessCounterThreshold, 12u);
    EXPECT_EQ(opts.config.directoryBits, 4u);
    EXPECT_EQ(opts.config.seed, 99u);
    EXPECT_DOUBLE_EQ(opts.scale, 0.5);
    EXPECT_NO_THROW(opts.config.validate());
}

TEST(Cli, PageSizeAndIrmbGeometry)
{
    CliOptions opts =
        mustParse({"--page-size", "2m", "--irmb", "64x16"});
    EXPECT_EQ(opts.config.pageBits, 21u);
    EXPECT_EQ(opts.config.irmb.bases, 64u);
    EXPECT_EQ(opts.config.irmb.offsetsPerBase, 16u);
    EXPECT_FALSE(parseCli({"--page-size", "1g"}).ok());
    EXPECT_FALSE(parseCli({"--irmb", "64"}).ok());
    EXPECT_FALSE(parseCli({"--irmb", "0x16"}).ok());
}

TEST(Cli, FlagsAndErrors)
{
    EXPECT_TRUE(mustParse({"--help"}).help);
    EXPECT_TRUE(mustParse({"--list-apps"}).listApps);
    EXPECT_TRUE(mustParse({"--stats"}).dumpStats);
    EXPECT_FALSE(parseCli({"--bogus"}).ok());
    EXPECT_FALSE(parseCli({"--gpus"}).ok());       // missing value
    EXPECT_FALSE(parseCli({"--gpus", "zero"}).ok());
    EXPECT_FALSE(parseCli({"--scale", "-1"}).ok());
    EXPECT_FALSE(parseCli({"--scale", "nan"}).ok());
}

TEST(Cli, JobsFlag)
{
    // idyll_sim runs one system per call, so it takes no --jobs; sweep
    // workers are idyll_sweep's own flag (tools/idyll_sweep.cc).
    const CliParse parsed = parseCli({"--jobs", "4"});
    EXPECT_FALSE(parsed.ok());
    EXPECT_NE(parsed.error.find("unknown argument '--jobs'"),
              std::string::npos)
        << parsed.error;
}

TEST(Cli, ShardsFlag)
{
    EXPECT_EQ(mustParse({}).config.shards, 1u); // serial by default
    EXPECT_EQ(mustParse({"--shards", "4"}).config.shards, 4u);
    EXPECT_FALSE(parseCli({"--shards"}).ok());      // missing value
    EXPECT_FALSE(parseCli({"--shards", "0"}).ok()); // 1 = serial
    EXPECT_FALSE(parseCli({"--shards", "few"}).ok());
}

TEST(Cli, ShardsTakePrecedenceOverJobs)
{
    // idyll_sim has no --jobs, so --shards alone sets a run's threads:
    // no shard count is clamped or warned about, however large.
    for (const auto &[flag, shards] :
         {std::pair<const char *, std::uint32_t>{"2", 2u}, {"64", 64u}}) {
        CliParse sharded = parseCli({"--shards", flag});
        ASSERT_TRUE(sharded.ok()) << flag;
        EXPECT_EQ(sharded.options->config.shards, shards);
        EXPECT_TRUE(sharded.warning.empty()) << sharded.warning;
    }

    // The old composition (--shards with --jobs) is now a parse error
    // that names --jobs, not a silent clamp.
    const CliParse both = parseCli({"--shards", "2", "--jobs", "1"});
    EXPECT_FALSE(both.ok());
    EXPECT_NE(both.error.find("'--jobs'"), std::string::npos)
        << both.error;
}

TEST(Cli, UsageDocumentsShardsWithoutJobs)
{
    const std::string usage = cliUsage();
    EXPECT_NE(usage.find("--shards"), std::string::npos);
    EXPECT_EQ(usage.find("--jobs"), std::string::npos);
}

TEST(Cli, TraceFlags)
{
    EXPECT_TRUE(mustParse({}).config.trace.categories.empty());
    EXPECT_EQ(mustParse({"--trace", "all"}).config.trace.categories,
              "all");
    EXPECT_EQ(mustParse({"--trace", "tlb,inval"})
                  .config.trace.categories,
              "tlb,inval");
    EXPECT_EQ(mustParse({"--trace-out", "t.jsonl"})
                  .config.trace.jsonlPath,
              "t.jsonl");
    EXPECT_FALSE(parseCli({"--trace"}).ok()); // missing value
    EXPECT_FALSE(parseCli({"--trace", "bogus"}).ok());
    EXPECT_FALSE(parseCli({"--trace-out"}).ok());

    // --trace-digest implies "all" unless --trace narrows it.
    CliOptions digest = mustParse({"--trace-digest"});
    EXPECT_TRUE(digest.traceDigest);
    EXPECT_EQ(digest.config.trace.categories, "all");
    EXPECT_EQ(mustParse({"--trace-digest", "--trace", "irmb"})
                  .config.trace.categories,
              "irmb");
}

/** The config fields the shared run flags set, in flag order. */
auto
runFields(const SystemConfig &c)
{
    return std::make_tuple(c.integrity.oracle, c.integrity.faultPlan,
                           c.integrity.invalRetryTimeout,
                           c.integrity.watchdogMaxIdleEvents,
                           c.integrity.watchdogMaxIdleTicks,
                           c.trace.categories, c.latency.enabled,
                           c.sampler.everyCycles, c.hostStats);
}

TEST(Cli, RunFlagsParseAndApply)
{
    const std::vector<std::string> args = {
        "--oracle", "--faults", "ack.dup@0.2", "--retry-timeout", "7",
        "--watchdog-events", "8", "--watchdog-ticks", "9", "--trace",
        "tlb", "--latency", "--sample-every", "10", "--host-stats"};
    EXPECT_EQ(runFields(mustParse(args).config),
              std::make_tuple(true, std::string("ack.dup@0.2"), 7u, 8u,
                              9u, std::string("tlb"), true, 10u, true));

    // The shared parser alone consumes exactly its flags.
    ConfigEdits edits;
    std::string error;
    for (std::size_t i = 0; i < args.size(); ++i)
        ASSERT_TRUE(parseRunFlag(args, i, edits, error)) << args[i];
    EXPECT_TRUE(error.empty());
    SystemConfig cfg;
    applyEdits(edits, cfg);
    EXPECT_EQ(runFields(cfg), runFields(mustParse(args).config));
    std::size_t i = 0;
    EXPECT_FALSE(parseRunFlag({"--figure"}, i, edits, error));

    EXPECT_FALSE(parseCli({"--watchdog-ticks", "0"}).ok());
    EXPECT_FALSE(parseCli({"--faults"}).ok()); // missing value
}

TEST(Cli, EnvironmentDoesNotReachTheConfig)
{
    const std::vector<std::string> args = {"--scheme", "idyll"};
    const CliOptions clean = mustParse(args);
    const SystemConfig cleanScaled = scaledForSim(SystemConfig{});
    const unsigned cleanJobs = resolveJobs(0);

    // Flags are the only channel: none of these may change a run.
    const char *const env[] = {
        "IDYLL_ORACLE", "IDYLL_FAULTS", "IDYLL_INVAL_RETRY",
        "IDYLL_WATCHDOG_EVENTS", "IDYLL_WATCHDOG_TICKS", "IDYLL_TRACE",
        "IDYLL_LATENCY", "IDYLL_SAMPLE_EVERY", "IDYLL_HOST_STATS",
        "IDYLL_BENCH_SCALE", "IDYLL_JOBS"};
    for (const char *name : env)
        setenv(name, "7", 1);
    const CliOptions opts = mustParse(args);
    EXPECT_EQ(runFields(opts.config), runFields(clean.config));
    EXPECT_EQ(runFields(scaledForSim(SystemConfig{})),
              runFields(cleanScaled));
    EXPECT_DOUBLE_EQ(opts.scale, clean.scale);
    EXPECT_EQ(resolveJobs(0), cleanJobs);
    for (const char *name : env)
        unsetenv(name);
}

TEST(Cli, DirectoryAliasingIsAnAdvisory)
{
    CliParse parsed = parseCli({"--scheme", "idyll", "--gpus", "16"});
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.warning.rfind("directoryBits (11) < numGpus (16)", 0),
              0u);
}

TEST(Cli, OddL2TlbSizesRemainValid)
{
    CliOptions opts = mustParse({"--l2tlb", "1000"});
    EXPECT_NO_THROW(opts.config.validate());
}

TEST(Cli, UsageMentionsEverySchemes)
{
    const std::string usage = cliUsage();
    for (const char *s : {"baseline", "idyll", "inmem", "zero",
                          "replication", "transfw"})
        EXPECT_NE(usage.find(s), std::string::npos) << s;
}

} // namespace
} // namespace idyll
