#include "cli.h"

#include <algorithm>
#include <charconv>

namespace perfbench {
namespace {

/** Whole-string unsigned decimal: no sign, no spaces, no trailing bytes. */
bool
ParseUnsigned(const std::string& text, uint64_t* out)
{
    if (text.empty() || text[0] < '0' || text[0] > '9') {
        return false;
    }
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
    return ec == std::errc() && ptr == end;
}

bool
ParseBounded(const std::string& text, uint64_t lo, uint64_t hi, int* out)
{
    uint64_t value = 0;
    if (!ParseUnsigned(text, &value) || value < lo || value > hi) {
        return false;
    }
    *out = static_cast<int>(value);
    return true;
}

}  // namespace

ParseResult
ParseArgs(const std::vector<std::string>& argv,
          const std::vector<std::string>& workloads)
{
    ParseResult result;
    std::vector<std::string> seen;
    for (size_t i = 0; i < argv.size(); ++i) {
        std::string flag = argv[i];
        std::string value;
        bool has_value = false;
        if (flag.rfind("--", 0) != 0) {
            result.error = "unexpected argument '" + flag + "'";
            return result;
        }
        if (const size_t eq = flag.find('='); eq != std::string::npos) {
            value = flag.substr(eq + 1);
            flag.resize(eq);
            has_value = true;
        } else if (i + 1 < argv.size()) {
            value = argv[++i];
            has_value = true;
        }
        if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
            flag != "--trace" && flag != "--jobs") {
            result.error = "unknown flag '" + flag + "'";
            return result;
        }
        if (!has_value) {
            result.error = flag + " needs a value";
            return result;
        }
        if (std::find(seen.begin(), seen.end(), flag) != seen.end()) {
            result.error = flag + " given twice";
            return result;
        }
        seen.push_back(flag);

        bool ok = true;
        if (flag == "--workload") {
            ok = std::find(workloads.begin(), workloads.end(), value) !=
                 workloads.end();
            result.args.workload = value;
        } else if (flag == "--seed") {
            ok = ParseUnsigned(value, &result.args.seed);
        } else if (flag == "--seconds") {
            ok = ParseBounded(value, 1, 3600, &result.args.seconds);
        } else if (flag == "--trace") {
            ok = value == "0" || value == "1";
            result.args.trace = value == "1";
        } else {
            ok = ParseBounded(value, 1, 256, &result.args.jobs);
        }
        if (!ok) {
            result.error = "bad value '" + value + "' for " + flag;
            return result;
        }
    }
    for (const char* required : {"--workload", "--seed", "--seconds"}) {
        if (std::find(seen.begin(), seen.end(), required) == seen.end()) {
            result.error = std::string(required) + " is required";
            return result;
        }
    }
    result.ok = true;
    return result;
}

std::string
Usage(const std::vector<std::string>& workloads)
{
    std::string names;
    for (const std::string& name : workloads) {
        names += names.empty() ? name : "|" + name;
    }
    return "usage: perfbench --workload " + names +
           " --seed N --seconds 1..3600 [--trace 0|1] [--jobs 1..256]\n";
}

}  // namespace perfbench
