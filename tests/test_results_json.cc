/**
 * @file
 * Tests for the JSON results emitter: escaping, per-run toJson(), the
 * suite-level writer, and the sweep registry behind idyll_sweep.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "harness/sweeps.hh"
#include "harness/tables.hh"

namespace idyll
{
namespace
{

TEST(Json, EscapeHandlesSpecials)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb\tc"), "a\\nb\\tc");
    EXPECT_EQ(jsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(Json, ToJsonEmitsEveryHeadlineField)
{
    SimResults r;
    r.app = "PR";
    r.scheme = "idyll";
    r.execTicks = 12345;
    r.instructions = 678;
    r.mpki = 1.25;
    r.sharingBuckets = {10, 20, 30};
    const std::string json = r.toJson();

    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"app\": \"PR\""), std::string::npos);
    EXPECT_NE(json.find("\"scheme\": \"idyll\""), std::string::npos);
    EXPECT_NE(json.find("\"execTicks\": 12345"), std::string::npos);
    EXPECT_NE(json.find("\"instructions\": 678"), std::string::npos);
    EXPECT_NE(json.find("\"mpki\": 1.25"), std::string::npos);
    EXPECT_NE(json.find("\"sharingBuckets\": [10, 20, 30]"),
              std::string::npos);
    EXPECT_NE(json.find("\"networkBytes\": 0"), std::string::npos);
}

TEST(Json, DoublesRoundTripExactly)
{
    SimResults r;
    r.mpki = 0.1 + 0.2; // not representable; needs max_digits10
    const std::string json = r.toJson();
    const auto pos = json.find("\"mpki\": ");
    ASSERT_NE(pos, std::string::npos);
    const double parsed = std::stod(json.substr(pos + 8));
    EXPECT_EQ(parsed, r.mpki);
}

TEST(Json, SuiteWriterShapesDocument)
{
    SimResults a, b;
    a.app = "BS";
    a.scheme = "baseline";
    b.app = "SC";
    b.scheme = "baseline";
    const std::vector<std::vector<SimResults>> grid = {{a, b}};

    std::ostringstream os;
    writeSuiteJson(os, "smoke", 0.05, {"BS", "SC"}, {"baseline"},
                   grid);
    const std::string doc = os.str();

    EXPECT_NE(doc.find("\"suite\": \"smoke\""), std::string::npos);
    EXPECT_NE(doc.find("\"scale\": 0.05"), std::string::npos);
    EXPECT_NE(doc.find("\"apps\": [\"BS\", \"SC\"]"),
              std::string::npos);
    EXPECT_NE(doc.find("\"schemes\": [\"baseline\"]"),
              std::string::npos);
    // One result object per grid cell, scheme-major.
    EXPECT_LT(doc.find("\"app\": \"BS\""), doc.find("\"app\": \"SC\""));
    // Balanced braces => structurally sound JSON.
    EXPECT_EQ(std::count(doc.begin(), doc.end(), '{'),
              std::count(doc.begin(), doc.end(), '}'));
}

TEST(JsonDeath, SuiteWriterRejectsRaggedGrids)
{
    std::ostringstream os;
    const std::vector<std::vector<SimResults>> ragged = {{}};
    EXPECT_DEATH(
        writeSuiteJson(os, "bad", 1.0, {"BS"}, {"x", "y"}, ragged),
        "schemes");
}

TEST(Sweeps, RegistryNamesResolve)
{
    const auto names = sweepNames();
    ASSERT_FALSE(names.empty());
    for (const std::string &name : names) {
        const auto spec = sweepByName(name);
        ASSERT_TRUE(spec.has_value()) << name;
        EXPECT_EQ(spec->name, name);
        if (spec->columns.empty()) {
            // Text-only (Table 2): nothing to run.
            EXPECT_TRUE(spec->apps.empty()) << name;
            EXPECT_TRUE(spec->points.empty()) << name;
            EXPECT_FALSE(spec->notes.empty()) << name;
            continue;
        }
        EXPECT_FALSE(spec->apps.empty()) << name;
        EXPECT_FALSE(spec->points.empty()) << name;
        // Point labels key the JSON "schemes" list and the columns.
        auto labels = pointLabels(*spec);
        std::sort(labels.begin(), labels.end());
        EXPECT_EQ(std::adjacent_find(labels.begin(), labels.end()),
                  labels.end())
            << name << " repeats a point label";
    }
    EXPECT_FALSE(sweepByName("no-such-figure").has_value());
}

TEST(Sweeps, EveryPaperFigureIsRegistered)
{
    const std::vector<std::string> paper = {
        "table2", "table3", "fig01", "fig02", "fig04", "fig05", "fig06",
        "fig07", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
        "fig17", "fig18", "fig19", "fig20", "fig21", "fig22", "fig23",
        "fig24", "ablation-directory-bits", "ablation-irmb-policy",
        "ablation-mmu-cache"};
    for (const std::string &name : paper)
        EXPECT_TRUE(sweepByName(name).has_value()) << name;
}

TEST(Sweeps, ColumnsMeasureRegisteredPoints)
{
    for (const SweepSpec &spec : allSweeps()) {
        const auto labels = pointLabels(spec);
        auto known = [&](const std::string &label) {
            return std::find(labels.begin(), labels.end(), label) !=
                   labels.end();
        };
        std::vector<std::string> used;
        for (const SweepColumn &col : spec.columns) {
            EXPECT_TRUE(known(col.point))
                << spec.name << "/" << col.header << " -> " << col.point;
            used.push_back(col.point);
            const bool relative = col.metric == Metric::Speedup ||
                                  col.metric == Metric::Ratio ||
                                  col.metric == Metric::Saving;
            EXPECT_EQ(relative, !col.against.empty())
                << spec.name << "/" << col.header;
            if (relative) {
                EXPECT_TRUE(known(col.against))
                    << spec.name << "/" << col.header << " against "
                    << col.against;
                used.push_back(col.against);
            } else {
                EXPECT_NE(col.field, nullptr)
                    << spec.name << "/" << col.header;
            }
            if (col.metric == Metric::Percent) {
                EXPECT_NE(col.whole, nullptr)
                    << spec.name << "/" << col.header;
            }
        }
        // Every point feeds some column: no run is wasted.
        for (const std::string &label : labels)
            EXPECT_NE(std::find(used.begin(), used.end(), label),
                      used.end())
                << spec.name << " never reads point " << label;
    }
}

TEST(Sweeps, EveryPointValidates)
{
    for (const SweepSpec &spec : allSweeps())
        for (const SchemePoint &point : spec.points)
            EXPECT_TRUE(point.cfg.check().empty())
                << spec.name << "/" << point.label;
}

TEST(Sweeps, SmokeSweepIsCiSized)
{
    const auto spec = sweepByName("smoke");
    ASSERT_TRUE(spec.has_value());
    EXPECT_EQ(spec->apps.size(), 2u);
    ASSERT_EQ(spec->points.size(), 3u);
    // Points come simulation-scaled.
    EXPECT_EQ(spec->points[0].cfg.accessCounterThreshold,
              kScaledThreshold256);
}

TEST(Sweeps, Fig11MatchesThePapersGrid)
{
    const auto spec = sweepByName("fig11");
    ASSERT_TRUE(spec.has_value());
    EXPECT_EQ(spec->apps.size(), 9u); // the Table 3 applications
    // The paper's six schemes plus the two L2-policy ablations
    // (dead-entry eviction, sub-entry sharing) on top of IDYLL.
    ASSERT_EQ(spec->points.size(), 8u);
    EXPECT_EQ(spec->points.front().label, "baseline");
}

TEST(Sweeps, Fig17ComparesL2TlbPolicies)
{
    // The paper's Figure 17: IDYLL with a 2048-entry L2 TLB against a
    // baseline with the same L2, plus sub-entry sharing and dead-entry
    // eviction on that L2.
    const auto spec = sweepByName("fig17");
    ASSERT_TRUE(spec.has_value());
    bool sub = false;
    bool dead = false;
    for (const SchemePoint &point : spec->points) {
        EXPECT_EQ(point.cfg.l2Tlb.entries, 2048u) << point.label;
        sub |= point.cfg.l2Tlb.subEntries > 1;
        dead |= point.cfg.l2Tlb.deadEntryEviction;
    }
    EXPECT_TRUE(sub);
    EXPECT_TRUE(dead);
    ASSERT_EQ(spec->columns.size(), 3u);
    for (const SweepColumn &col : spec->columns)
        EXPECT_EQ(col.against, spec->columns.front().against);
    const auto &points = spec->points;
    const auto base = std::find_if(
        points.begin(), points.end(), [&](const SchemePoint &p) {
            return p.label == spec->columns.front().against;
        });
    ASSERT_NE(base, points.end());
    EXPECT_EQ(base->cfg.invalFilter, SystemConfig::baseline().invalFilter);
    EXPECT_EQ(base->cfg.invalApply, SystemConfig::baseline().invalApply);
}

TEST(Sweeps, GpuScalingShrinksWorkPerPoint)
{
    const auto spec = sweepByName("fig18");
    ASSERT_TRUE(spec.has_value());
    for (const SchemePoint &point : spec->points)
        EXPECT_DOUBLE_EQ(point.work, 4.0 / point.cfg.numGpus)
            << point.label;
}

TEST(Sweeps, PrintSweepTabulatesColumns)
{
    auto spec = sweepByName("smoke");
    ASSERT_TRUE(spec.has_value());
    std::vector<std::vector<SimResults>> grid(
        spec->points.size(),
        std::vector<SimResults>(spec->apps.size()));
    for (std::size_t a = 0; a < spec->apps.size(); ++a) {
        grid[0][a].execTicks = 400; // baseline
        grid[1][a].execTicks = 200; // idyll: 2x
        grid[2][a].execTicks = 100; // zero: 4x
    }
    std::ostringstream os;
    printSweep(os, *spec, grid);
    const std::string out = os.str();
    EXPECT_NE(out.find("paper expectation: "), std::string::npos);
    EXPECT_NE(out.find(spec->title), std::string::npos);
    const auto ave = out.find("Ave.");
    ASSERT_NE(ave, std::string::npos);
    EXPECT_NE(out.find("2.000", ave), std::string::npos);
    EXPECT_NE(out.find("4.000", ave), std::string::npos);
}

} // namespace
} // namespace idyll
