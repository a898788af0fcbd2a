/**
 * @file
 * Tests for the structured event tracer: category parsing, runtime
 * filtering, JSONL well-formedness, digest determinism across the
 * parallel runner, a pinned golden trace for a two-GPU ping-pong
 * migration workload, pinned rows for the per-page paths (unplug,
 * duplicate rounds, replication, access counters, in-memory directory),
 * and the invalidation-subset property that is
 * IDYLL's whole point (lightweight invalidation never sends *more*
 * than the baseline broadcast).
 */

#include <gtest/gtest.h>

#include <ostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "harness/cli.hh"
#include "harness/runner.hh"
#include "harness/system.hh"
#include "sim/trace.hh"

namespace idyll
{
namespace
{

// --- pure parsing / naming ---------------------------------------------

TEST(TraceCategories, ParsesAllAndCsv)
{
    EXPECT_EQ(parseTraceCategories("all"), kTraceAll);
    EXPECT_EQ(parseTraceCategories(""), 0u);
    EXPECT_EQ(parseTraceCategories("tlb"),
              traceBit(TraceCategory::Tlb));
    EXPECT_EQ(parseTraceCategories("tlb,inval"),
              traceBit(TraceCategory::Tlb) |
                  traceBit(TraceCategory::Inval));
    EXPECT_EQ(parseTraceCategories("bogus"), std::nullopt);
    EXPECT_EQ(parseTraceCategories("tlb,bogus"), std::nullopt);
}

TEST(TraceCategories, EveryCategoryNameRoundTrips)
{
    for (std::uint32_t i = 0; i < kNumTraceCategories; ++i) {
        const auto cat = static_cast<TraceCategory>(i);
        EXPECT_EQ(parseTraceCategories(traceCategoryName(cat)),
                  traceBit(cat))
            << traceCategoryName(cat);
    }
}

TEST(TraceOps, NamesAreUniqueAndCategorized)
{
    std::set<std::string> names;
    for (std::uint32_t i = 0; i < kNumTraceOps; ++i) {
        const auto op = static_cast<TraceOp>(i);
        const std::string name = traceOpName(op);
        EXPECT_FALSE(name.empty());
        EXPECT_TRUE(names.insert(name).second)
            << "duplicate op name " << name;
        EXPECT_LT(static_cast<std::uint32_t>(traceCategoryOf(op)),
                  kNumTraceCategories);
    }
}

// --- digest sink semantics ---------------------------------------------

TEST(TraceDigest, OrderInsensitiveAndCounted)
{
    const TraceEvent e1{10, TraceOp::TlbHit, 0, 0x40000, 3, 1, 0};
    const TraceEvent e2{20, TraceOp::TlbMiss, 1, 0x40001, 2, 0, 0};

    TraceDigestSink ab, ba;
    ab.record(e1);
    ab.record(e2);
    ba.record(e2);
    ba.record(e1);

    EXPECT_EQ(ab.count(TraceCategory::Tlb), 2u);
    EXPECT_EQ(ab.opCount(TraceOp::TlbHit), 1u);
    EXPECT_EQ(ab.totalCount(), 2u);
    EXPECT_EQ(ab.hash(TraceCategory::Tlb),
              ba.hash(TraceCategory::Tlb));
    EXPECT_EQ(ab.totalHash(), ba.totalHash());
    EXPECT_EQ(ab.canonicalText(), ba.canonicalText());
    EXPECT_EQ(ab.canonicalLine(), ba.canonicalLine());

    // A different multiset must not collide on the happy path.
    TraceDigestSink other;
    other.record(e1);
    EXPECT_NE(other.totalHash(), ab.totalHash());
}

#if IDYLL_TRACE_ENABLED

// --- run-based tests (need the instrumentation compiled in) ------------

SystemConfig
smallTraced(SystemConfig base, const std::string &cats)
{
    base.numGpus = 2;
    base.cusPerGpu = 8;
    base.warpsPerCu = 4;
    base.accessCounterThreshold = 4;
    base.prepopulate = Prepopulate::HomeShard;
    base.trace.categories = cats;
    return base;
}

/**
 * A deterministic two-GPU ping-pong: a small, hot, globally shared
 * region that both GPUs hammer with writes, so pages migrate back and
 * forth and every IDYLL mechanism (IRMB merging, in-PTE directory
 * suppression) engages.
 */
AppParams
pingPongParams()
{
    AppParams p;
    p.name = "pingpong2";
    p.pattern = SharePattern::Random;
    p.footprintPages = 64;
    p.itemsPerCu = 400;
    p.writeRatio = 0.5;
    p.remoteFraction = 0.5;
    p.pageRunLength = 2;
    p.shareDegree = 2;
    p.hotFraction = 0.8;
    p.hotPages = 8;
    return p;
}

TEST(TraceFilter, OnlyRequestedCategoriesPassTheMask)
{
    MultiGpuSystem system(
        smallTraced(SystemConfig::idyllFull(), "tlb"));
    ASSERT_NE(system.tracer(), nullptr);
    CollectTraceSink collected;
    system.tracer()->addSink(&collected);

    system.run(Workload(pingPongParams()));

    ASSERT_FALSE(collected.events().empty());
    for (const TraceEvent &event : collected.events()) {
        EXPECT_EQ(traceCategoryOf(event.op), TraceCategory::Tlb)
            << traceOpName(event.op);
    }
}

TEST(TraceJsonl, EveryLineIsOneWellFormedObject)
{
    MultiGpuSystem system(
        smallTraced(SystemConfig::idyllFull(), "mig,inval"));
    ASSERT_NE(system.tracer(), nullptr);
    std::ostringstream jsonl;
    JsonlTraceSink sink(jsonl);
    system.tracer()->addSink(&sink);

    system.run(Workload(pingPongParams()));

    std::istringstream lines(jsonl.str());
    std::string line;
    std::uint64_t count = 0;
    while (std::getline(lines, line)) {
        ASSERT_FALSE(line.empty());
        EXPECT_EQ(line.front(), '{') << line;
        EXPECT_EQ(line.back(), '}') << line;
        EXPECT_NE(line.find("\"t\":"), std::string::npos) << line;
        EXPECT_NE(line.find("\"cat\":\""), std::string::npos) << line;
        EXPECT_NE(line.find("\"op\":\""), std::string::npos) << line;
        EXPECT_NE(line.find("\"gpu\":"), std::string::npos) << line;
        // Quotes must balance (no unescaped strings sneaking out).
        EXPECT_EQ(std::count(line.begin(), line.end(), '"') % 2, 0)
            << line;
        ++count;
    }
    ASSERT_NE(system.traceDigest(), nullptr);
    EXPECT_EQ(count, system.traceDigest()->totalCount());
    EXPECT_GT(count, 0u);
}

TEST(TraceDigest, IdenticalForSerialAndParallelSuiteRuns)
{
    const std::vector<std::string> apps{"KM"};
    std::vector<SchemePoint> schemes;
    schemes.push_back({"baseline",
                       smallTraced(SystemConfig::baseline(), "all")});
    schemes.push_back({"idyll",
                       smallTraced(SystemConfig::idyllFull(), "all")});

    const auto serial = runSuite(apps, schemes, 0.1, 1);
    const auto parallel = runSuite(apps, schemes, 0.1, 8);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t s = 0; s < serial.size(); ++s) {
        for (std::size_t a = 0; a < serial[s].size(); ++a) {
            EXPECT_FALSE(serial[s][a].traceDigest.empty());
            EXPECT_EQ(serial[s][a].traceDigest,
                      parallel[s][a].traceDigest)
                << schemes[s].label;
        }
    }
}

TEST(GoldenTrace, PingPongMigrationUnderIdyll)
{
    // Four GPUs so the in-PTE directory has something to suppress
    // (with two, every ping-ponged page is shared by "everyone" and
    // a broadcast is already minimal), and a higher migration rate
    // so IRMB bases see multiple offsets in flight at once.
    SystemConfig cfg = smallTraced(SystemConfig::idyllFull(), "all");
    cfg.numGpus = 4;
    cfg.accessCounterThreshold = 2;
    AppParams params = pingPongParams();
    params.itemsPerCu = 600;
    params.hotPages = 16;
    params.hotFraction = 0.6;

    MultiGpuSystem system(cfg);
    SimResults r = system.run(Workload(params));

    const TraceDigestSink *digest = system.traceDigest();
    ASSERT_NE(digest, nullptr);

    // The workload must actually exercise the IDYLL machinery.
    EXPECT_GT(digest->opCount(TraceOp::MigDone), 0u);
    EXPECT_GT(digest->opCount(TraceOp::IrmbMerge), 0u)
        << "IRMB never merged: batching is broken or the workload "
           "stopped ping-ponging";
    EXPECT_GT(digest->opCount(TraceOp::DirTargets), 0u);
    // In-PTE directory suppression: across all rounds, fewer
    // invalidations go out than a 4-GPU broadcast would send.
    EXPECT_LT(digest->opCount(TraceOp::InvalSend),
              4 * digest->opCount(TraceOp::InvalRoundDone));

    // Results carry the one-line digest and the metrics registry.
    EXPECT_EQ(r.traceDigest, digest->canonicalLine());
    EXPECT_NE(r.metricsJson.find("\"children\""), std::string::npos);

    // The pinned golden: event counts AND order-insensitive hashes
    // for every category. Any change to translation, migration, or
    // invalidation behaviour shows up here. If a change is intended,
    // re-pin with:  idyll_tests --gtest_filter='GoldenTrace.*'
    // and copy the "actual" text from the failure message.
    const std::string golden =
        "trace-digest v1\n"
        "tlb count=43606 hash=59c3f1638c6fc2f5\n"
        "irmb count=11922 hash=97cc3836f8436923\n"
        "dir count=11400 hash=741e1cf2b1270142\n"
        "walk count=49323 hash=7ea238d26765fad1\n"
        "mig count=10169 hash=22d52d140e560853\n"
        "inval count=20604 hash=6022b8e9799befd0\n"
        "fault count=21707 hash=28495cdaff36bd96\n"
        "net count=57116 hash=211b275eba0fe08d\n"
        "all count=225847 hash=8f16030c909aeadd\n";
    EXPECT_EQ(digest->canonicalText(), golden)
        << "actual:\n"
        << digest->canonicalText();
}

TEST(GoldenTrace, DigestIdenticalAcrossRepeatedRuns)
{
    // Digest-identity check for the pooled event kernel: two fresh
    // systems in the same process must replay the exact same trace.
    // The second run's queue grows its slab arena from a process heap
    // the first run already churned, so any dependence on node
    // addresses or allocation order (instead of pure (tick, seq)
    // ordering) would show up as a digest difference here.
    SystemConfig cfg = smallTraced(SystemConfig::idyllFull(), "all");
    cfg.numGpus = 4;
    const Workload workload(pingPongParams());

    auto digestOf = [&] {
        MultiGpuSystem system(cfg);
        return system.run(workload).traceDigest;
    };
    const std::string first = digestOf();
    const std::string second = digestOf();
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(first, second);
}

TEST(InvalSubsetProperty, IdyllNeverInvalidatesMoreThanBaseline)
{
    // IDYLL's promise is *fewer, never extra* invalidations: every
    // (target GPU, vpn) the IDYLL scheme invalidates must also be
    // invalidated by the broadcast baseline on the same workload.
    const Workload workload(pingPongParams());

    auto collect = [&](SystemConfig cfg) {
        MultiGpuSystem system(smallTraced(std::move(cfg), "inval"));
        CollectTraceSink sink;
        system.tracer()->addSink(&sink);
        system.run(workload);
        std::set<std::pair<GpuId, Vpn>> pairs;
        for (const TraceEvent &event : sink.events()) {
            if (event.op == TraceOp::InvalSend)
                pairs.emplace(event.gpu, event.vpn);
        }
        return pairs;
    };

    const auto baseline = collect(SystemConfig::baseline());
    const auto idyll = collect(SystemConfig::idyllFull());

    ASSERT_FALSE(baseline.empty());
    ASSERT_FALSE(idyll.empty());
    for (const auto &pair : idyll) {
        EXPECT_TRUE(baseline.count(pair))
            << "idyll invalidated (gpu " << pair.first << ", vpn 0x"
            << std::hex << pair.second
            << ") which the baseline broadcast never sent";
    }
    EXPECT_LE(idyll.size(), baseline.size());
}

// --- per-page paths the perf benchmark does not run ----------------------

/**
 * One pinned `idyll_sim --trace-digest` run: the canonical trace text
 * plus the two results the trace does not cover (Figure 4's sharing
 * buckets, which fold every GPU's access tally into the driver, and
 * the run's end tick).
 */
struct GoldenRow
{
    const char *name;
    std::vector<std::string> args; ///< idyll_sim flags, minus --scale
    const char *digest;
    std::vector<std::uint64_t> sharingBuckets;
    Tick execTicks;
};

std::ostream &
operator<<(std::ostream &os, const GoldenRow &row)
{
    return os << row.name;
}

/** The row as C++ source, so a deliberate re-pin is a copy. */
std::string
rowSource(const GoldenRow &row, const std::string &digest,
          const std::vector<std::uint64_t> &buckets, Tick execTicks)
{
    std::ostringstream os;
    os << "    {\"" << row.name << "\",\n     {";
    for (std::size_t i = 0; i < row.args.size(); ++i)
        os << (i ? ", " : "") << '"' << row.args[i] << '"';
    os << "},\n";
    std::istringstream lines(digest);
    std::string line;
    bool first = true;
    while (std::getline(lines, line)) {
        os << (first ? "" : "\n") << "     \"" << line << "\\n\"";
        first = false;
    }
    os << ",\n     {";
    for (std::size_t i = 0; i < buckets.size(); ++i)
        os << (i ? ", " : "") << buckets[i];
    os << "},\n     " << execTicks << "},\n";
    return os.str();
}

class GoldenTraceRows : public ::testing::TestWithParam<GoldenRow>
{
};

TEST_P(GoldenTraceRows, MatchesPin)
{
    const GoldenRow &row = GetParam();
    std::vector<std::string> args = row.args;
    for (const char *flag : {"--scale", "0.02", "--trace-digest"})
        args.emplace_back(flag);
    const CliParse parsed = parseCli(args);
    ASSERT_TRUE(parsed.ok()) << row.name << ": " << parsed.error;
    const CliOptions &opts = *parsed.options;

    // Exactly what `idyll_sim ... --trace-digest` runs.
    MultiGpuSystem system(opts.config);
    const SimResults r =
        system.run(Workload::byName(opts.app, opts.scale));
    ASSERT_NE(system.traceDigest(), nullptr);
    const std::string digest = system.traceDigest()->canonicalText();

    const bool same = digest == row.digest &&
                      r.sharingBuckets == row.sharingBuckets &&
                      r.execTicks == row.execTicks;
    EXPECT_TRUE(same) << "golden row " << row.name
                      << " moved; if intended, re-pin it with:\n"
                      << rowSource(row, digest, r.sharingBuckets,
                                   r.execTicks);
}

const std::vector<GoldenRow> kGoldenRows = {
    // Record reset at unplug and the driver's recovery scans.
    {"km_idyll_unplug",
     {"--app", "KM", "--scheme", "idyll", "--gpus", "4", "--unplug", "g1@20000/80000"},
     "trace-digest v1\n"
     "tlb count=25057 hash=b137203a63248c84\n"
     "irmb count=953 hash=eecd333ea956d2c4\n"
     "dir count=19023 hash=9d99a0d850a01ad9\n"
     "walk count=25434 hash=f39fe836672549d0\n"
     "mig count=7381 hash=230d06c0132fca29\n"
     "inval count=4386 hash=14832f1227feab06\n"
     "fault count=9249 hash=50d6b89639fc7c40\n"
     "net count=20836 hash=2939ae575013d262\n"
     "all count=112319 hash=7f9d64f9a0c9c244\n",
     {5144, 2758, 3532, 1390},
     136885},
    // Duplicate invalidation rounds: the GPU's seen-round dedup.
    {"km_idyll_oracle_dup",
     {"--app", "KM", "--scheme", "idyll", "--oracle", "--faults", "inval.dup@0.5"},
     "trace-digest v1\n"
     "tlb count=25330 hash=b1c2a309e82e536e\n"
     "irmb count=855 hash=3ec15a62f9f7cbe9\n"
     "dir count=10214 hash=ee472615f44483a8\n"
     "walk count=19281 hash=e788cf6550e6de4d\n"
     "mig count=909 hash=406745b9b57b0e63\n"
     "inval count=1943 hash=262d89f3632f8263\n"
     "fault count=4625 hash=6a1d7f1375b2a8fa\n"
     "net count=17726 hash=a163fd8085f9c002\n"
     "all count=80883 hash=2bf85ec29364219a\n",
     {5130, 2731, 3517, 1422},
     28715},
    // Replica frames, collapse order and replica promotion on unplug.
    {"km_replication_oracle_unplug",
     {"--app", "KM", "--scheme", "replication", "--oracle", "--unplug", "g2@30000"},
     "trace-digest v1\n"
     "tlb count=38647 hash=9c6c617137bca90f\n"
     "irmb count=0 hash=0000000000000000\n"
     "dir count=0 hash=0000000000000000\n"
     "walk count=48618 hash=5cc45ee00e836786\n"
     "mig count=7421 hash=0b7eee46c6ac14c4\n"
     "inval count=25422 hash=5622edf6a4335208\n"
     "fault count=10141 hash=2647a49d269057ef\n"
     "net count=29807 hash=0189f198c0e2c97e\n"
     "all count=160056 hash=ba3a6924bdd216d4\n",
     {5037, 2828, 3316, 1224},
     209879},
    {"pr_replication",
     {"--app", "PR", "--scheme", "replication"},
     "trace-digest v1\n"
     "tlb count=29471 hash=71a2a2ff8c80cda7\n"
     "irmb count=0 hash=0000000000000000\n"
     "dir count=0 hash=0000000000000000\n"
     "walk count=35547 hash=4ec3255ca2b6e250\n"
     "mig count=1962 hash=3d4fd964d4558a85\n"
     "inval count=8502 hash=35a4c5611f84ef2e\n"
     "fault count=11552 hash=5c6a9bd2f7dac40a\n"
     "net count=25223 hash=f58904cff2d63e78\n"
     "all count=112257 hash=9e6904bbe0ebb02e\n",
     {3395, 1997, 4312, 3096},
     81237},
    // Access-counter migration requests.
    {"km_baseline",
     {"--app", "KM", "--scheme", "baseline"},
     "trace-digest v1\n"
     "tlb count=26246 hash=7fe725856f11bd7e\n"
     "irmb count=0 hash=0000000000000000\n"
     "dir count=0 hash=0000000000000000\n"
     "walk count=22281 hash=f95c0f14cceb923a\n"
     "mig count=913 hash=fa3be6f5cba78fcd\n"
     "inval count=2964 hash=12195fdee857cc01\n"
     "fault count=4863 hash=947ebae7731043ba\n"
     "net count=18041 hash=4a2f6adc70f73a86\n"
     "all count=75308 hash=b0c8438183ed15b4\n",
     {5130, 2731, 3517, 1422},
     40653},
    {"km_inmem",
     {"--app", "KM", "--scheme", "inmem"},
     "trace-digest v1\n"
     "tlb count=25311 hash=78ba7c0bfacde66e\n"
     "irmb count=860 hash=286a6339226ef469\n"
     "dir count=0 hash=0000000000000000\n"
     "walk count=19284 hash=7219395b7a533438\n"
     "mig count=909 hash=f3e90373d795e23f\n"
     "inval count=1946 hash=6303db041c77f21a\n"
     "fault count=4621 hash=4234224b723d819e\n"
     "net count=17462 hash=6b9eb85092b1177b\n"
     "all count=70393 hash=9b896405899ea0ff\n",
     {5130, 2731, 3517, 1422},
     28422},
};

INSTANTIATE_TEST_SUITE_P(
    PerPage, GoldenTraceRows, ::testing::ValuesIn(kGoldenRows),
    [](const ::testing::TestParamInfo<GoldenRow> &info) {
        return std::string(info.param.name);
    });

#endif // IDYLL_TRACE_ENABLED

} // namespace
} // namespace idyll
