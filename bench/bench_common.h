/**
 * @file
 * Shared helpers for the experiment harness binaries in bench/: consistent
 * headers, level labels, and residency rendering for the figure benches.
 */
#ifndef AEO_BENCH_BENCH_COMMON_H_
#define AEO_BENCH_BENCH_COMMON_H_

#include <string>
#include <vector>

#include "core/batch_runner.h"
#include "device/run_result.h"

namespace aeo::bench {

/** Command-line options shared by the harness binaries. */
struct BenchArgs {
    /** --fast: reduced grids/durations for CI smoke runs. */
    bool fast = false;
    /** --jobs=N: batch-layer worker count (default: all hardware threads).
     * Results are bit-identical at any value; only wall-clock changes. */
    BatchOptions batch;
    /** --runs=N: overrides the bench's profiling run count (0 = use the
     * bench default, which usually depends on --fast). */
    int runs = 0;
    /** --out=PATH: overrides the bench's CSV artifact path. */
    std::string out;
    /** --json=PATH: overrides the path of the bench's gated snapshot. */
    std::string json;
    /** --seed=S: overrides the bench's root seed (0 = use the bench
     * default). Every derived seed (profiler, devices, campaigns) is an
     * offset of this root, so one flag re-seeds the whole experiment. */
    uint64_t seed = 0;
    /** --baseline=NAME: CPU governor for the comparison baseline (empty =
     * the stock interactive governor, the gated-snapshot configuration).
     * E.g. --baseline=lulzactive pits the controller against the community
     * governor in the Table III/IV comparisons. */
    std::string baseline;
    /** robustness_chaos_campaign only: --campaigns=N (0 = the bench
     * default), --replay=PATH of a crash bundle to re-run, and --bundle=PATH
     * where a shrunk failure is written (empty = the bench default). */
    int campaigns = 0;
    std::string replay;
    std::string bundle;

    /** Profiling run count: the --runs override if given, else the bench
     * default for the current speed mode. */
    int ProfileRuns(int full_default = 3, int fast_default = 1) const
    {
        if (runs > 0) {
            return runs;
        }
        return fast ? fast_default : full_default;
    }

    /** CSV artifact path: the --out override if given, else @p default_name. */
    std::string OutputPath(const std::string& default_name) const
    {
        return out.empty() ? default_name : out;
    }

    /** Snapshot path: the --json override if given, else @p default_name. */
    std::string JsonPath(const std::string& default_name) const
    {
        return json.empty() ? default_name : json;
    }

    /** Root seed: the --seed override if given, else @p fallback. */
    uint64_t SeedOr(uint64_t fallback) const
    {
        return seed != 0 ? seed : fallback;
    }
};

/**
 * Parses every bench flag (--fast, --jobs=N, --runs=N, --seed=S, --out=PATH,
 * --json=PATH, --baseline=NAME and the chaos bench's --campaigns=N,
 * --replay=PATH, --bundle=PATH). An unknown flag, a missing or malformed
 * value, or a number out of range prints the usage to stderr and exits 2,
 * so a typo never runs a full-size bench with defaults.
 */
BenchArgs ParseBenchArgs(int argc, char** argv);

/**
 * Monotonic wall time in seconds, for perf sidecars and progress lines.
 * This is the one sanctioned wall-clock read in bench/: everything a
 * snapshot gate diffs must come from simulated time, and aeo-lint's
 * determinism rule bans raw std::chrono clocks outside this helper so a
 * wall-clock read can never silently leak into gated bytes.
 */
double MonotonicSeconds();

/** Writes @p json_text to @p path and prints a "Wrote" line. */
void WriteSnapshotFile(const std::string& path, const std::string& json_text);

/**
 * Writes the non-deterministic perf sidecar `<snapshot_path>.perf.json`:
 * wall seconds, simulated events executed (TotalExecutedEvents delta over
 * the bench), events/sec, and hardware threads. Kept out of the snapshot
 * itself so the byte-for-byte CI gate only ever sees deterministic bytes;
 * CI uploads the sidecars as artifacts for trend tracking.
 */
void WritePerfMeta(const std::string& snapshot_path, double wall_seconds,
                   uint64_t events_executed);

/** Prints a banner naming the experiment and the paper artifact. */
void PrintHeader(const std::string& experiment_id, const std::string& title);

/** Labels "1".."18" / "1".."13" for residency charts (paper numbering). */
std::vector<std::string> CpuLevelLabels();
std::vector<std::string> BwLevelLabels();

/** Renders a residency vector as an ASCII bar chart. */
std::string RenderResidency(const std::vector<double>& fractions,
                            const std::vector<std::string>& labels);

/** Prints two residency charts side by side contextually (default, ours). */
void PrintResidencyComparison(const std::string& app,
                              const aeo::RunResult& default_run,
                              const aeo::RunResult& controller_run, bool bandwidth);

}  // namespace aeo::bench

#endif  // AEO_BENCH_BENCH_COMMON_H_
