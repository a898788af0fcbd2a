/**
 * @file
 * Named experiment sweeps: every paper table, figure and ablation as
 * one registry entry, resolvable by name so one tool
 * (tools/idyll_sweep.cc) can regenerate any of them as JSON plus the
 * paper-shaped table.
 *
 * A sweep is an (app x point) grid. Each point is a labelled,
 * simulation-scaled configuration built from the presets; each table
 * column is one metric of one point, measured against another point
 * where the metric is relative.
 */

#ifndef IDYLL_HARNESS_SWEEPS_HH
#define IDYLL_HARNESS_SWEEPS_HH

#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "harness/runner.hh"

namespace idyll
{

/** Reads one number out of a run's results. */
using Field = double (*)(const SimResults &);

/** The metrics a table column can show. */
enum class Metric
{
    Speedup, ///< point's speedup over `against`
    Ratio,   ///< point's field / against's field (0 if against's is 0)
    Saving,  ///< 100 * (1 - Ratio): % of against's field removed
    Percent, ///< 100 * field / whole, both from the point's own run
    Raw,     ///< the point's field as is
};

/** One table column: a metric of one point. */
struct SweepColumn
{
    std::string header;
    Metric metric = Metric::Speedup;
    std::string point;   ///< label of the point measured
    std::string against; ///< reference point (Speedup, Ratio, Saving)
    Field field = nullptr;
    Field whole = nullptr; ///< Percent's denominator
};

/** One named figure: its grid, its table and the paper's numbers. */
struct SweepSpec
{
    std::string name;        ///< e.g. "fig11"
    std::string description; ///< what the figure shows
    std::string expectation; ///< what the paper reports
    std::vector<std::string> apps;
    std::vector<SchemePoint> points; ///< simulation-scaled configs
    WorkloadFn workload = nullptr;   ///< null = Workload::byName
    std::string title;               ///< the table's heading
    std::vector<SweepColumn> columns;
    int precision = 3;   ///< digits after the decimal point
    bool average = true; ///< append the paper's "Ave." row
    std::string notes;   ///< text printed before the table
};

/** Every registered sweep, in paper order. */
std::vector<SweepSpec> allSweeps();

/** The registered sweep names, in paper order. */
std::vector<std::string> sweepNames();

/** Look a sweep up by name (empty optional = unknown). */
std::optional<SweepSpec> sweepByName(const std::string &name);

/** The point labels of @p spec, in grid order. */
std::vector<std::string> pointLabels(const SweepSpec &spec);

/**
 * Print @p spec's banner, notes and table from its [point][app]
 * result grid (fatal() on a column naming an unknown point).
 */
void printSweep(std::ostream &os, const SweepSpec &spec,
                const std::vector<std::vector<SimResults>> &grid);

} // namespace idyll

#endif // IDYLL_HARNESS_SWEEPS_HH
