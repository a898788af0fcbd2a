#include "harness/tables.hh"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>

#include "sim/logging.hh"

namespace idyll
{

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values) {
        IDYLL_ASSERT(v > 0.0, "geomean of non-positive value");
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

ResultTable::ResultTable(std::string title,
                         std::vector<std::string> columns)
    : _title(std::move(title)), _columns(std::move(columns))
{
}

void
ResultTable::addRow(const std::string &label, std::vector<double> values)
{
    IDYLL_ASSERT(values.size() == _columns.size(),
                 "row '", label, "' has ", values.size(),
                 " values for ", _columns.size(), " columns");
    _rows.emplace_back(label, std::move(values));
}

void
ResultTable::addAverageRow()
{
    std::vector<double> avgs(_columns.size(), 0.0);
    for (std::size_t c = 0; c < _columns.size(); ++c) {
        std::vector<double> column;
        column.reserve(_rows.size());
        for (const auto &[label, values] : _rows)
            column.push_back(values[c]);
        avgs[c] = mean(column);
    }
    _rows.emplace_back("Ave.", std::move(avgs));
}

void
ResultTable::print(std::ostream &os, int precision) const
{
    constexpr int kLabelWidth = 10;
    constexpr std::size_t kColWidth = 14;

    // A long header widens its column so a space always separates it
    // from its left neighbour.
    std::vector<int> widths;
    std::size_t ruleWidth = kLabelWidth;
    for (const std::string &col : _columns) {
        widths.push_back(
            static_cast<int>(std::max(kColWidth, col.size() + 1)));
        ruleWidth += widths.back();
    }

    os << "\n== " << _title << " ==\n";
    os << std::left << std::setw(kLabelWidth) << "app";
    for (std::size_t c = 0; c < _columns.size(); ++c)
        os << std::right << std::setw(widths[c]) << _columns[c];
    os << "\n" << std::string(ruleWidth, '-') << "\n";
    for (const auto &[label, values] : _rows) {
        os << std::left << std::setw(kLabelWidth) << label;
        for (std::size_t c = 0; c < values.size(); ++c) {
            os << std::right << std::setw(widths[c]) << std::fixed
               << std::setprecision(precision) << values[c];
        }
        os << "\n";
    }
    os.flush();
}

std::string
jsonEscape(const std::string &text)
{
    std::ostringstream os;
    for (const char c : text) {
        switch (c) {
            case '"':
                os << "\\\"";
                break;
            case '\\':
                os << "\\\\";
                break;
            case '\n':
                os << "\\n";
                break;
            case '\t':
                os << "\\t";
                break;
            case '\r':
                os << "\\r";
                break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    os << "\\u" << std::hex << std::setw(4)
                       << std::setfill('0') << static_cast<int>(c)
                       << std::dec << std::setfill(' ');
                } else {
                    os << c;
                }
        }
    }
    return os.str();
}

namespace
{

/** Streams `"key": value` members with JSON punctuation. */
class JsonObject
{
  public:
    explicit JsonObject(std::ostream &os) : _os(os) { _os << "{"; }

    void
    add(const char *key, const std::string &value)
    {
        sep();
        _os << "\"" << key << "\": \"" << jsonEscape(value) << "\"";
    }

    void
    add(const char *key, std::uint64_t value)
    {
        sep();
        _os << "\"" << key << "\": " << value;
    }

    void
    add(const char *key, double value)
    {
        sep();
        _os << "\"" << key << "\": "
            << std::setprecision(
                   std::numeric_limits<double>::max_digits10)
            << value;
    }

    void
    add(const char *key, const std::vector<std::uint64_t> &values)
    {
        sep();
        _os << "\"" << key << "\": [";
        for (std::size_t i = 0; i < values.size(); ++i)
            _os << (i ? ", " : "") << values[i];
        _os << "]";
    }

    /** Embed pre-serialized JSON verbatim (objects from sub-systems). */
    void
    addRaw(const char *key, const std::string &rawJson)
    {
        sep();
        _os << "\"" << key << "\": " << rawJson;
    }

    void close() { _os << "}"; }

  private:
    void
    sep()
    {
        if (_first)
            _first = false;
        else
            _os << ", ";
    }

    std::ostream &_os;
    bool _first = true;
};

} // namespace

std::string
SimResults::toJson() const
{
    std::ostringstream os;
    JsonObject obj(os);
    obj.add("app", app);
    obj.add("scheme", scheme);
    obj.add("execTicks", static_cast<std::uint64_t>(execTicks));
    obj.add("instructions", instructions);
    obj.add("accesses", accesses);
    obj.add("localAccesses", localAccesses);
    obj.add("remoteAccesses", remoteAccesses);
    obj.add("l1Hits", l1Hits);
    obj.add("l1Misses", l1Misses);
    obj.add("l2Hits", l2Hits);
    obj.add("l2Misses", l2Misses);
    obj.add("mpki", mpki);
    obj.add("demandTlbMisses", demandTlbMisses);
    obj.add("demandMissLatencyAvg", demandMissLatencyAvg);
    obj.add("demandMissLatencyTotal", demandMissLatencyTotal);
    obj.add("farFaults", farFaults);
    obj.add("faultResolveLatencyAvg", faultResolveLatencyAvg);
    obj.add("demandWalks", demandWalks);
    obj.add("invalWalks", invalWalks);
    obj.add("updateWalks", updateWalks);
    obj.add("pwcHits", pwcHits);
    obj.add("pwcMisses", pwcMisses);
    obj.add("pwcStaleDrops", pwcStaleDrops);
    obj.add("mmuCacheLevelHits", mmuCacheLevelHits);
    obj.add("mmuCacheLevelMisses", mmuCacheLevelMisses);
    obj.add("walkQueueFullStalls", walkQueueFullStalls);
    obj.add("l2SubConflicts", l2SubConflicts);
    obj.add("l2DeadEvictions", l2DeadEvictions);
    obj.add("busyDemandCycles", busyDemandCycles);
    obj.add("busyInvalCycles", busyInvalCycles);
    obj.add("invalSent", invalSent);
    obj.add("invalNecessary", invalNecessary);
    obj.add("invalUnnecessary", invalUnnecessary);
    obj.add("invalServiceLatencyTotal", invalServiceLatencyTotal);
    obj.add("migrationRequests", migrationRequests);
    obj.add("migrations", migrations);
    obj.add("migrationWaitAvg", migrationWaitAvg);
    obj.add("migrationWaitTotal", migrationWaitTotal);
    obj.add("migrationTotalAvg", migrationTotalAvg);
    obj.add("irmbInserts", irmbInserts);
    obj.add("irmbLookupHits", irmbLookupHits);
    obj.add("irmbElided", irmbElided);
    obj.add("irmbWrittenBack", irmbWrittenBack);
    obj.add("irmbEvictions", irmbEvictions);
    obj.add("transFwForwarded", transFwForwarded);
    obj.add("vmCacheHits", vmCacheHits);
    obj.add("vmCacheMisses", vmCacheMisses);
    obj.add("sharingBuckets", sharingBuckets);
    obj.add("networkBytes", networkBytes);
    // Host timings are emitted only when measured: they differ run to
    // run, and CI compares serialized results byte-for-byte.
    if (hostSeconds > 0.0) {
        obj.add("hostSeconds", hostSeconds);
        obj.add("eventsExecuted", eventsExecuted);
        obj.add("eventsPerSec", eventsPerSec);
    }
    if (!traceDigest.empty())
        obj.add("traceDigest", traceDigest);
    if (!metricsJson.empty())
        obj.addRaw("metrics", metricsJson);
    if (latDemandCount || latInvalCount) {
        obj.add("latDemandCount", latDemandCount);
        obj.add("latDemandCycles", latDemandCycles);
        obj.add("latInvalCount", latInvalCount);
        obj.add("latInvalCycles", latInvalCycles);
        obj.add("latDemandPhaseCycles", latDemandPhaseCycles);
        obj.add("latInvalPhaseCycles", latInvalPhaseCycles);
    }
    if (!latencyJson.empty())
        obj.addRaw("latency", latencyJson);
    if (!samplesJson.empty())
        obj.addRaw("samples", samplesJson);
    // Run-shape telemetry (hostStats && sharded): omitted otherwise so
    // serialized results stay byte-identical across shard counts.
    if (!shardTelemetryJson.empty()) {
        obj.add("shardImbalancePct", shardImbalancePct);
        obj.add("lookaheadStallPct", lookaheadStallPct);
        obj.addRaw("shardTelemetry", shardTelemetryJson);
    }
    obj.close();
    return os.str();
}

void
writeSuiteJson(std::ostream &os, const std::string &suite, double scale,
               const std::vector<std::string> &apps,
               const std::vector<std::string> &schemes,
               const std::vector<std::vector<SimResults>> &grid)
{
    IDYLL_ASSERT(grid.size() == schemes.size(),
                 "suite '", suite, "' has ", grid.size(),
                 " rows for ", schemes.size(), " schemes");
    os << "{\n";
    os << "  \"suite\": \"" << jsonEscape(suite) << "\",\n";
    os << "  \"scale\": "
       << std::setprecision(std::numeric_limits<double>::max_digits10)
       << scale << ",\n";
    os << "  \"apps\": [";
    for (std::size_t i = 0; i < apps.size(); ++i)
        os << (i ? ", " : "") << "\"" << jsonEscape(apps[i]) << "\"";
    os << "],\n";
    os << "  \"schemes\": [";
    for (std::size_t i = 0; i < schemes.size(); ++i)
        os << (i ? ", " : "") << "\"" << jsonEscape(schemes[i]) << "\"";
    os << "],\n";
    os << "  \"results\": [\n";
    bool first = true;
    for (const auto &row : grid) {
        IDYLL_ASSERT(row.size() == apps.size(),
                     "suite '", suite, "' has a row of ", row.size(),
                     " results for ", apps.size(), " apps");
        for (const SimResults &r : row) {
            os << (first ? "    " : ",\n    ") << r.toJson();
            first = false;
        }
    }
    os << "\n  ]\n}\n";
    os.flush();
}

} // namespace idyll
