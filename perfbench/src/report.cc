#include "report.h"

#include <cmath>
#include <cstdio>

namespace perfbench {

double
JobAccount::failed_share() const
{
    if (attempted == 0) {
        return 0.0;
    }
    return static_cast<double>(failed() + invariant_broken) /
           static_cast<double>(attempted);
}

JobAccount&
JobAccount::operator+=(const JobAccount& other)
{
    attempted += other.attempted;
    threw += other.threw;
    check_failed += other.check_failed;
    invariant_broken += other.invariant_broken;
    return *this;
}

bool
IsCorrect(const JobAccount& account, const std::vector<Metric>& metrics)
{
    bool correct = account.attempted > 0 && account.failed() == 0;
    for (const Metric& metric : metrics) {
        correct = correct && std::isfinite(metric.value);
    }
    return correct;
}

std::string
ResultLine(const JobAccount& account, const std::vector<Metric>& metrics)
{
    std::string out = "{\"correct\": ";
    out += IsCorrect(account, metrics) ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(account.attempted);
    out += ", \"failed\": " + std::to_string(account.failed());
    out += ", \"metrics\": {";
    char number[64];
    for (size_t i = 0; i < metrics.size(); ++i) {
        const Metric& metric = metrics[i];
        // JSON has no NaN/inf: a non-finite value is a benchmark bug and
        // prints as null so the line stays parseable and the run is refused.
        if (std::isfinite(metric.value)) {
            std::snprintf(number, sizeof(number), "%.17g", metric.value);
        } else {
            std::snprintf(number, sizeof(number), "null");
        }
        out += i == 0 ? "" : ", ";
        out += "\"" + metric.name + "\": {\"value\": " + number +
               ", \"unit\": \"" + metric.unit + "\"}";
    }
    out += "}}";
    return out;
}

}  // namespace perfbench
