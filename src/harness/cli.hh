/**
 * @file
 * Command-line options for the idyll_sim driver tool (and anything
 * else that wants "run app X under scheme Y" from flags). Parsing is
 * pure (no I/O) so it is unit-testable.
 */

#ifndef IDYLL_HARNESS_CLI_HH
#define IDYLL_HARNESS_CLI_HH

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "sim/config.hh"

namespace idyll
{

/**
 * Config changes parsed from flags, in command-line order. They are
 * kept apart from any one config, so idyll_sim can apply them once
 * its scheme preset is resolved and idyll_sweep to every point.
 */
using ConfigEdits = std::vector<std::function<void(SystemConfig &)>>;

/** Apply @p edits to @p cfg, in order. */
void applyEdits(const ConfigEdits &edits, SystemConfig &cfg);

/**
 * Parse args[i] if it is one of the shared run flags (runFlagUsage()
 * lists them). On a match, @p i moves to the flag's last argument and
 * the result is true; @p error is set when the value is missing or
 * malformed. Any other argument returns false and changes nothing.
 */
bool parseRunFlag(const std::vector<std::string> &args, std::size_t &i,
                  ConfigEdits &edits, std::string &error);

/**
 * Checked number parsing for flag values: the whole text must be one
 * decimal number (no sign on @p parseUnsigned, finite for
 * @p parseDouble), or the result is false.
 */
bool parseUnsigned(const std::string &text, std::uint64_t &out);
bool parseDouble(const std::string &text, double &out);

/** Parsed command line. */
struct CliOptions
{
    std::string app = "KM";
    std::string scheme = "baseline";
    double scale = 1.0;
    bool dumpStats = false;
    bool listApps = false;
    bool help = false;
    bool digest = false;      ///< print the final translation-state digest
    bool traceDigest = false; ///< print the canonical trace digest
    std::string jsonOut;      ///< write full results JSON to this file

    // --- serve mode (harness/serve.hh) — plain scalars so cli.hh
    // --- need not pull the serve header in ---------------------------
    bool serve = false;               ///< run the windowed SLO harness
    std::uint64_t serveWindow = 20000; ///< window length (cycles)
    std::uint32_t serveWarmup = 2;    ///< warmup windows to discard
    std::uint32_t serveWindows = 0;   ///< measured windows (0 = all)
    std::uint32_t stormEvery = 0;     ///< storm every Nth window
    std::uint64_t stormShift = 0;     ///< pages per shift (0 = hotPages)
    std::string benchOut;             ///< write BENCH_*.json here

    // --- chaos soak mode (harness/chaos.hh) --------------------------
    bool chaos = false;            ///< run a chaos soak campaign
    std::uint64_t chaosSeed = 1;   ///< campaign seed
    double chaosSeconds = 0.0;     ///< wall-clock budget (0 = trials)
    std::uint64_t chaosTrials = 0; ///< trial cap (0 = time budget)
    std::string chaosOut;          ///< write the chaos JSON artifact here

    SystemConfig config; ///< fully resolved configuration
};

/** Result of parsing: options or an error message. */
struct CliParse
{
    std::optional<CliOptions> options;
    std::string error;

    /** Non-fatal advisory (the config's SystemConfig::advisory()). */
    std::string warning;

    bool ok() const { return options.has_value(); }
};

/** Parse argv-style arguments: the flags cliUsage() lists. */
CliParse parseCli(const std::vector<std::string> &args);

/** The usage text for --help / errors: one line per flag. */
std::string cliUsage();

/** cliUsage()'s lines for the shared run flags (see parseRunFlag). */
std::string runFlagUsage();

/** Resolve a scheme name to a configuration (empty optional = bad). */
std::optional<SystemConfig> schemeByName(const std::string &name);

} // namespace idyll

#endif // IDYLL_HARNESS_CLI_HH
