#include "harness/bench_compare.hh"

#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <limits>
#include <sstream>

namespace idyll
{

namespace
{

/**
 * Parse the number starting at the first digit/sign at or after
 * @p pos. Empty optional when nothing numeric is there.
 */
std::optional<double>
numberAt(const std::string &text, std::size_t pos)
{
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == ':'))
        ++pos;
    if (pos >= text.size())
        return std::nullopt;
    const char *begin = text.c_str() + pos;
    char *end = nullptr;
    const double value = std::strtod(begin, &end);
    if (end == begin)
        return std::nullopt;
    return value;
}

/** Find `"key"` and return the position just past its colon. */
std::optional<std::size_t>
afterKey(const std::string &text, const std::string &key,
         std::size_t from = 0)
{
    const std::string needle = "\"" + key + "\"";
    const std::size_t at = text.find(needle, from);
    if (at == std::string::npos)
        return std::nullopt;
    const std::size_t colon = text.find(':', at + needle.size());
    if (colon == std::string::npos)
        return std::nullopt;
    return colon + 1;
}

} // namespace

std::optional<double>
BenchMetrics::get(const std::string &name) const
{
    for (const auto &[key, value] : values)
        if (key == name)
            return value;
    return std::nullopt;
}

std::optional<BenchMetrics>
parseBenchJson(const std::string &text)
{
    BenchMetrics m;

    if (auto pos = afterKey(text, "bench")) {
        const std::size_t open = text.find('"', *pos);
        const std::size_t close =
            open == std::string::npos ? std::string::npos
                                      : text.find('"', open + 1);
        if (close != std::string::npos)
            m.bench = text.substr(open + 1, close - open - 1);
    }
    if (auto pos = afterKey(text, "schema")) {
        if (auto v = numberAt(text, *pos))
            m.schema = static_cast<int>(*v);
    }

    const auto metricsPos = afterKey(text, "metrics");
    if (!metricsPos)
        return std::nullopt;
    const std::size_t open = text.find('{', *metricsPos);
    if (open == std::string::npos)
        return std::nullopt;
    // The metrics object is flat by construction, so the first '}'
    // closes it.
    const std::size_t close = text.find('}', open);
    if (close == std::string::npos)
        return std::nullopt;

    std::size_t cursor = open + 1;
    while (cursor < close) {
        const std::size_t keyOpen = text.find('"', cursor);
        if (keyOpen == std::string::npos || keyOpen >= close)
            break;
        const std::size_t keyClose = text.find('"', keyOpen + 1);
        if (keyClose == std::string::npos || keyClose >= close)
            return std::nullopt;
        const std::string key =
            text.substr(keyOpen + 1, keyClose - keyOpen - 1);
        const std::size_t colon = text.find(':', keyClose);
        if (colon == std::string::npos || colon >= close)
            return std::nullopt;
        const auto value = numberAt(text, colon + 1);
        if (!value)
            return std::nullopt;
        m.values.emplace_back(key, *value);
        const std::size_t comma = text.find(',', colon);
        if (comma == std::string::npos || comma > close)
            break;
        cursor = comma + 1;
    }
    return m;
}

std::optional<BenchMetrics>
parseGoogleBenchmark(const std::string &text,
                     const std::string &namePrefix)
{
    // Each entry of the "benchmarks" array starts at its "name" key.
    // Every non-aggregate entry whose name starts with the prefix is
    // one repetition; keep the best items_per_second among them.
    const std::string nameKey = "\"name\"";
    std::optional<double> best;
    std::size_t at = text.find(nameKey);
    while (at != std::string::npos) {
        const std::size_t next = text.find(nameKey, at + nameKey.size());
        const std::string entry = text.substr(
            at, next == std::string::npos ? next : next - at);
        at = next;
        const std::size_t open = entry.find('"', nameKey.size());
        const std::size_t close = open == std::string::npos
                                      ? open
                                      : entry.find('"', open + 1);
        if (close == std::string::npos)
            break;
        const std::string name = entry.substr(open + 1, close - open - 1);
        if (name.rfind(namePrefix, 0) != 0 ||
            entry.find("\"aggregate\"") != std::string::npos)
            continue;
        const auto ipsPos = afterKey(entry, "items_per_second", close);
        const auto ips = ipsPos ? numberAt(entry, *ipsPos) : std::nullopt;
        if (ips && (!best || *ips > *best))
            best = ips;
    }
    if (!best)
        return std::nullopt;
    BenchMetrics m;
    m.bench = "events_per_sec";
    m.schema = 1;
    m.values.emplace_back("eventsPerSec", *best);
    return m;
}

std::string
benchMetricsToJson(const BenchMetrics &m)
{
    std::ostringstream os;
    os.precision(std::numeric_limits<double>::max_digits10);
    os << "{\"bench\":\"" << m.bench << "\",\"schema\":" << m.schema
       << ",\"metrics\":{";
    for (std::size_t i = 0; i < m.values.size(); ++i) {
        os << (i ? "," : "") << "\"" << m.values[i].first
           << "\":" << m.values[i].second;
    }
    os << "}}";
    return os.str();
}

bool
metricHigherIsBetter(const std::string &name)
{
    // Throughput and completed-work counters: falling is the
    // regression. Everything else (percentiles, cycle counts,
    // migrations, amplification ratios) regresses by rising. The
    // eventsPerSec prefix also covers the per-shard-count variants
    // (eventsPerSecShards1/4/8) the shard scaling bench emits.
    static const std::set<std::string> higher = {
        "steadyThroughputPerKcycle",
        "steadyFinished",
        "stormFinished",
        "demandFinished",
    };
    if (name.rfind("eventsPerSec", 0) == 0)
        return true;
    return higher.count(name) > 0;
}

bool
metricIsNeutral(const std::string &name)
{
    // Run-shape telemetry from the shard scaling bench: imbalance and
    // stall percentages vary with core count and scheduler noise, so
    // they inform but never gate.
    return name.rfind("shardImbalance", 0) == 0 ||
           name.rfind("lookaheadStall", 0) == 0 ||
           name.rfind("stallWindow", 0) == 0;
}

DiffReport
diffBenchMetrics(const BenchMetrics &baseline,
                 const BenchMetrics &current, const DiffOptions &opt)
{
    DiffReport report;
    for (const auto &[name, base] : baseline.values) {
        if (opt.skip.count(name))
            continue;
        const auto cur = current.get(name);
        if (!cur) {
            report.missing.push_back(name);
            report.breached = true;
            continue;
        }

        MetricDelta d;
        d.name = name;
        d.baseline = base;
        d.current = *cur;
        d.higherBetter = metricHigherIsBetter(name);
        d.neutral = metricIsNeutral(name);
        const auto it = opt.thresholds.find(name);
        d.thresholdPct = it != opt.thresholds.end()
                             ? it->second
                             : opt.defaultThresholdPct;

        if (base != 0.0) {
            d.deltaPct = 100.0 * (*cur - base) / std::fabs(base);
        } else {
            d.deltaPct = *cur == 0.0 ? 0.0 : 100.0;
        }
        const double bad =
            d.higherBetter ? -d.deltaPct : d.deltaPct;
        d.regressed = !d.neutral && bad > d.thresholdPct;
        if (d.regressed)
            report.breached = true;
        report.deltas.push_back(d);
    }
    return report;
}

std::string
DiffReport::summary() const
{
    std::ostringstream os;
    os << std::left << std::setw(28) << "metric" << std::right
       << std::setw(16) << "baseline" << std::setw(16) << "current"
       << std::setw(10) << "delta%" << std::setw(8) << "limit%"
       << "  verdict\n";
    for (const MetricDelta &d : deltas) {
        os << std::left << std::setw(28) << d.name << std::right
           << std::fixed << std::setprecision(2) << std::setw(16)
           << d.baseline << std::setw(16) << d.current
           << std::showpos << std::setw(10) << d.deltaPct
           << std::noshowpos << std::setw(8) << d.thresholdPct
           << "  "
           << (d.regressed
                   ? "REGRESSED"
                   : (d.neutral ? "neutral"
                                : (d.higherBetter ? "ok (higher better)"
                                                  : "ok")))
           << "\n";
        os.unsetf(std::ios::fixed);
        os << std::setprecision(6);
    }
    for (const std::string &name : missing)
        os << "MISSING in current artifact: " << name << "\n";
    os << (breached ? "FAIL" : "PASS") << ": " << deltas.size()
       << " metrics compared, " << missing.size() << " missing\n";
    return os.str();
}

} // namespace idyll
