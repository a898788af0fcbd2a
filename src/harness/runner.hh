/**
 * @file
 * Experiment runner: one-call helpers that build a fresh system per
 * (app, config) pair — shared by the sweeps, benches and the
 * integration tests.
 */

#ifndef IDYLL_HARNESS_RUNNER_HH
#define IDYLL_HARNESS_RUNNER_HH

#include <string>
#include <vector>

#include "harness/results.hh"
#include "sim/config.hh"
#include "workloads/workload.hh"

namespace idyll
{

/** Run one app under one configuration (fresh system). */
SimResults runOnce(const std::string &app, const SystemConfig &cfg,
                   double scale = 1.0);

/** Run a fully custom workload under one configuration. */
SimResults runOnce(const Workload &workload, const SystemConfig &cfg);

/** A named configuration for suite sweeps. */
struct SchemePoint
{
    std::string label;
    SystemConfig cfg;
    double work = 1.0; ///< multiplies the suite's workload scale
};

/** Builds a grid cell's workload from its app name and scale. */
using WorkloadFn = Workload (*)(const std::string &app, double scale);

/**
 * Run every app under every scheme, fanning the grid out across a
 * worker pool (see harness/parallel.hh). @p jobs 0 = auto (hardware
 * concurrency); @p jobs 1 forces a serial run. Output is
 * bit-identical for every job count. Results are indexed
 * [scheme][app] in the given orders.
 */
std::vector<std::vector<SimResults>>
runSuite(const std::vector<std::string> &apps,
         const std::vector<SchemePoint> &schemes, double scale = 1.0,
         unsigned jobs = 0);

/**
 * The simulated runs are ~10^3 times shorter than the real
 * applications the paper traces, so the access-counter threshold must
 * shrink by a similar factor for page migration to engage at the
 * paper's relative intensity. 8 is the scaled stand-in for the UVM
 * default of 256; Figure 20's "512" doubles it (16). See DESIGN.md.
 */
constexpr std::uint32_t kScaledThreshold256 = 8;
constexpr std::uint32_t kScaledThreshold512 = 16;

/** Apply the simulation scaling to a Table 2 configuration. */
SystemConfig scaledForSim(SystemConfig cfg);

} // namespace idyll

#endif // IDYLL_HARNESS_RUNNER_HH
