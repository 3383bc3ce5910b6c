/**
 * @file
 * The benchmark's command line. Every flag is checked: an unknown flag, a
 * missing or repeated value, an unknown workload name or a malformed number
 * is an error, never a silent default.
 */
#ifndef PERFBENCH_CLI_H_
#define PERFBENCH_CLI_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** One benchmark invocation. */
struct Args {
    std::string workload;
    uint64_t seed = 0;
    /** Length of the measured window, host seconds. */
    int seconds = 0;
    /** False: untraced end-to-end run. True: traced per-layer run. */
    bool trace = false;
    /** Batch workers; 0 = the workload's own choice (nproc or 1). */
    int jobs = 0;
};

/** Outcome of ParseArgs(); @c error names the offending argument. */
struct ParseResult {
    bool ok = false;
    Args args;
    std::string error;
};

/**
 * Parses `--workload NAME --seed N --seconds N [--trace 0|1] [--jobs N]`
 * (each also as `--flag=value`). @p workloads lists the valid names.
 * @c --workload, @c --seed and @c --seconds are required.
 */
ParseResult ParseArgs(const std::vector<std::string>& argv,
                      const std::vector<std::string>& workloads);

/** Usage text listing @p workloads. */
std::string Usage(const std::vector<std::string>& workloads);

}  // namespace perfbench

#endif  // PERFBENCH_CLI_H_
