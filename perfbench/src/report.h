/**
 * @file
 * Job accounting and the result line. The last line of the benchmark's
 * standard output is one JSON object:
 *
 *   {"correct": B, "attempted": N, "failed": F,
 *    "metrics": {NAME: {"value": V, "unit": U}, ...}}
 *
 * where @c failed counts jobs that threw or failed an output check. A job
 * that ran cleanly but whose simulated device broke a chaos invariant is
 * not a failed operation of the benchmark; it is the workload's measured
 * finding, counted separately and folded into failed_share.
 */
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Outcome counts over every job a run attempted. */
struct JobAccount {
    uint64_t attempted = 0;
    /** Jobs whose library call threw. */
    uint64_t threw = 0;
    /** Jobs whose outputs failed a check (digest, snapshot, sanity). */
    uint64_t check_failed = 0;
    /** Clean jobs whose campaign broke an invariant monitor. */
    uint64_t invariant_broken = 0;

    /** Jobs the benchmark itself failed: threw or failed a check. */
    uint64_t failed() const { return threw + check_failed; }

    /** (failed + invariant-breaking) / attempted; 0 when nothing ran. */
    double failed_share() const;

    /** 1 - failed_share(). */
    double ok_share() const { return 1.0 - failed_share(); }

    JobAccount& operator+=(const JobAccount& other);
};

/** One named metric. */
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** True when jobs ran, none failed, and every metric is finite. */
bool IsCorrect(const JobAccount& account, const std::vector<Metric>& metrics);

/** The result line (no trailing newline). Values print with 17 digits. */
std::string ResultLine(const JobAccount& account,
                       const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
