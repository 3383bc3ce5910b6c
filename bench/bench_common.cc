#include "bench_common.h"

#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string_view>
#include <system_error>
#include <thread>

#include "common/json.h"
#include "common/logging.h"
#include "common/strings.h"

namespace aeo::bench {

namespace {

constexpr const char* kUsage =
    "flags (all optional):\n"
    "  --fast            reduced grids/durations (the CI snapshot size)\n"
    "  --jobs=N          batch workers, 1..256 (default: all hardware threads)\n"
    "  --runs=N          profiling runs per config, 1..1000\n"
    "  --seed=S          root seed, a positive 64-bit integer\n"
    "  --out=PATH        CSV artifact path\n"
    "  --json=PATH       snapshot path (benches that write one)\n"
    "  --baseline=NAME   CPU governor of the comparison baseline\n"
    "  --campaigns=N     robustness_chaos_campaign: campaigns to run, 1..100000\n"
    "  --replay=PATH     robustness_chaos_campaign: replay a crash bundle\n"
    "  --bundle=PATH     robustness_chaos_campaign: crash bundle output path\n";

[[noreturn]] void
UsageError(const char* program, const std::string& message)
{
    std::fprintf(stderr, "%s: %s\n%s", program, message.c_str(), kUsage);
    std::exit(2);
}

/** Parses all of @p text as a decimal integer in [lo, hi]. */
template <typename Int>
bool
ParseBounded(std::string_view text, Int lo, Int hi, Int* out)
{
    Int value{};
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end || value < lo || value > hi) {
        return false;
    }
    *out = value;
    return true;
}

}  // namespace

BenchArgs
ParseBenchArgs(int argc, char** argv)
{
    BenchArgs args;
    const char* program = argc > 0 ? argv[0] : "bench";
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "--fast") {
            args.fast = true;
            continue;
        }
        const size_t eq = arg.find('=');
        const std::string_view name = arg.substr(0, eq);
        const std::string_view value =
            eq == std::string_view::npos ? std::string_view() : arg.substr(eq + 1);
        const auto bad_value = [&](const char* expected) {
            UsageError(program, StrFormat("bad value in '%s': expected %s",
                                          argv[i], expected));
        };
        const auto set_text = [&](std::string* field) {
            if (value.empty()) bad_value("a non-empty value");
            *field = std::string(value);
        };
        if (name == "--jobs") {
            if (!ParseBounded(value, 1, 256, &args.batch.jobs)) {
                bad_value("an integer in 1..256");
            }
        } else if (name == "--runs") {
            if (!ParseBounded(value, 1, 1000, &args.runs)) {
                bad_value("an integer in 1..1000");
            }
        } else if (name == "--seed") {
            if (!ParseBounded<uint64_t>(value, 1, UINT64_MAX, &args.seed)) {
                bad_value("a positive 64-bit integer");
            }
        } else if (name == "--campaigns") {
            if (!ParseBounded(value, 1, 100000, &args.campaigns)) {
                bad_value("an integer in 1..100000");
            }
        } else if (name == "--out") {
            set_text(&args.out);
        } else if (name == "--json") {
            set_text(&args.json);
        } else if (name == "--baseline") {
            set_text(&args.baseline);
        } else if (name == "--replay") {
            set_text(&args.replay);
        } else if (name == "--bundle") {
            set_text(&args.bundle);
        } else {
            UsageError(program, StrFormat("unknown flag '%s'", argv[i]));
        }
    }
    return args;
}

double
MonotonicSeconds()
{
    // aeo-lint: allow(determinism) -- the single sanctioned wall-clock read
    // in bench/; feeds only perf sidecars, never gated snapshot bytes.
    using WallClock = std::chrono::steady_clock;
    return std::chrono::duration<double>(WallClock::now().time_since_epoch())
        .count();
}

void
WriteSnapshotFile(const std::string& path, const std::string& json_text)
{
    std::ofstream out(path);
    AEO_ASSERT(out.good(), "cannot open %s", path.c_str());
    out << json_text;
    out.close();
    std::printf("Wrote %s\n", path.c_str());
}

void
WritePerfMeta(const std::string& snapshot_path, double wall_seconds,
              uint64_t events_executed)
{
    JsonValue doc = JsonValue::MakeObject();
    doc.Set("wall_seconds", StrFormat("%.3f", wall_seconds));
    doc.Set("events_executed", events_executed);
    doc.Set("events_per_second",
            StrFormat("%.6g", wall_seconds > 0.0
                                  ? static_cast<double>(events_executed) /
                                        wall_seconds
                                  : 0.0));
    doc.Set("hardware_threads",
            static_cast<int>(std::thread::hardware_concurrency()));
    const std::string path = snapshot_path + ".perf.json";
    std::ofstream out(path);
    AEO_ASSERT(out.good(), "cannot open %s", path.c_str());
    out << doc.Dump(2) << "\n";
    out.close();
    std::printf("Wrote %s\n", path.c_str());
}

void
PrintHeader(const std::string& experiment_id, const std::string& title)
{
    std::printf("\n================================================================\n");
    std::printf("%s — %s\n", experiment_id.c_str(), title.c_str());
    std::printf("Reproduction of Rao et al., HPCA 2017 (simulated Nexus 6)\n");
    std::printf("================================================================\n\n");
}

std::vector<std::string>
CpuLevelLabels()
{
    std::vector<std::string> labels;
    for (int level = 1; level <= 18; ++level) {
        labels.push_back(StrFormat("f%02d", level));
    }
    return labels;
}

std::vector<std::string>
BwLevelLabels()
{
    std::vector<std::string> labels;
    for (int level = 1; level <= 13; ++level) {
        labels.push_back(StrFormat("bw%02d", level));
    }
    return labels;
}

std::string
RenderResidency(const std::vector<double>& fractions,
                const std::vector<std::string>& labels)
{
    std::string out;
    double max_fraction = 0.0;
    for (const double f : fractions) {
        max_fraction = f > max_fraction ? f : max_fraction;
    }
    for (size_t i = 0; i < fractions.size(); ++i) {
        const size_t bar =
            max_fraction > 0.0
                ? static_cast<size_t>(fractions[i] / max_fraction * 40.0 + 0.5)
                : 0;
        out += StrFormat("  %-5s %6.2f%% |%s\n", labels[i].c_str(),
                         fractions[i] * 100.0, std::string(bar, '#').c_str());
    }
    return out;
}

void
PrintResidencyComparison(const std::string& app, const aeo::RunResult& default_run,
                         const aeo::RunResult& controller_run, bool bandwidth)
{
    const auto labels = bandwidth ? BwLevelLabels() : CpuLevelLabels();
    const auto& def = bandwidth ? default_run.bw_residency : default_run.cpu_residency;
    const auto& ctl =
        bandwidth ? controller_run.bw_residency : controller_run.cpu_residency;
    std::printf("--- %s: default governor ---\n%s", app.c_str(),
                RenderResidency(def, labels).c_str());
    std::printf("--- %s: our controller ---\n%s\n", app.c_str(),
                RenderResidency(ctl, labels).c_str());
}

}  // namespace aeo::bench
