/**
 * @file
 * Figure 15: IDYLL sensitivity to the IRMB geometry: (bases, offsets)
 * in {(16,8), (16,16), (32,8), (64,16)} plus the default (32,16),
 * all relative to the baseline.
 *
 * Shape target: performance grows with IRMB size; (16,8) loses ~25%
 * of the default's gain; (64,16) adds a few percent.
 */

#include "bench_common.hh"

int
main()
{
    using namespace idyll;
    bench::banner("Figure 15", "IDYLL with different IRMB sizes",
                  "(16,8) +44.8%, default (32,16) +69.9%, "
                  "(64,16) +76.9% in the paper");

    const double scale = benchScale();
    const std::vector<std::pair<std::uint32_t, std::uint32_t>> sizes = {
        {16, 8}, {16, 16}, {32, 8}, {32, 16}, {64, 16}};

    std::vector<SchemePoint> schemes = {
        {"baseline", scaledForSim(SystemConfig::baseline())}};
    std::vector<std::string> cols;
    for (auto [bases, offsets] : sizes) {
        SystemConfig cfg = scaledForSim(SystemConfig::idyllFull());
        cfg.irmb.bases = bases;
        cfg.irmb.offsetsPerBase = offsets;
        std::string label = "(";
        label += std::to_string(bases);
        label += ",";
        label += std::to_string(offsets);
        label += ")";
        schemes.push_back({label, cfg});
        cols.push_back(label);
    }

    ResultTable table("IDYLL speedup over baseline by IRMB size", cols);
    for (const std::string &app : bench::apps()) {
        auto s = bench::speedupsVsFirst(app, schemes, scale);
        table.addRow(app, std::vector<double>(s.begin() + 1, s.end()));
    }
    table.addAverageRow();
    table.print(std::cout);
    return 0;
}
