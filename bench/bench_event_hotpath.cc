/**
 * @file
 * P2 — Event-core hot path: throughput and allocation behaviour of the slab
 * event queue (DESIGN.md §14) under the three shapes the simulator actually
 * runs:
 *
 *  - steady-state periodic dispatch (governor and thermal timers):
 *    PeriodicTasks, each firing re-arming its next occurrence as a fresh
 *    one-shot in the slot it just freed;
 *  - one-shot churn (device boundary events): schedule → fire → reschedule
 *    through the free list;
 *  - schedule/cancel mix (deadline supervision): ids armed and cancelled
 *    without ever firing;
 *  - lazy sampler batches (the 5 kHz Monsoon meter): MonsoonMonitor on the
 *    simulator's sampler series, its ticks delivered in batches before
 *    each real dispatch. This row counts samples, not dispatches.
 *
 * This binary overrides global operator new/delete with a counting hook, so
 * allocations per op are *measured*, not inferred: after warmup every row
 * must report 0 and the binary exits non-zero otherwise (the property test
 * under tests/sim asserts the same invariant; this bench reports it next to
 * the throughput numbers it buys).
 *
 * Emits BENCH_event_hotpath.json (ops/sec, ns/op, allocations/op per
 * scenario, where an op is a dispatch or, for the sampler, a sample).
 * Timing fields vary run to run — this artifact is a perf record, not a
 * determinism-gated snapshot.
 */
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/logging.h"
#include "common/strings.h"
#include "common/text_table.h"
#include "power/monsoon.h"
#include "sim/periodic_task.h"
#include "sim/simulator.h"

namespace {

/** Heap operations observed by the counting hook below. */
std::atomic<uint64_t> g_alloc_count{0};

}  // namespace

// Counting allocator hook: every heap allocation in this binary passes
// through here. Lives in this TU only — the hook is per-binary, the library
// under test is unchanged.
void*
operator new(std::size_t size)
{
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size)) {
        return p;
    }
    throw std::bad_alloc();
}

void*
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void
operator delete(void* p) noexcept
{
    std::free(p);
}

void
operator delete[](void* p) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::size_t) noexcept
{
    std::free(p);
}

namespace {


struct Scenario {
    std::string name;
    /** What one op is: "dispatch" or "sample". */
    std::string op = "dispatch";
    uint64_t ops = 0;
    double seconds = 0.0;
    uint64_t allocations = 0;

    double ops_per_second() const
    {
        return seconds > 0.0 ? static_cast<double>(ops) / seconds : 0.0;
    }
    double ns_per_op() const
    {
        return ops > 0 ? seconds * 1e9 / static_cast<double>(ops) : 0.0;
    }
    double allocs_per_op() const
    {
        return ops > 0 ? static_cast<double>(allocations) /
                             static_cast<double>(ops)
                       : 0.0;
    }
};

/**
 * Steady-state periodic dispatch: @p series PeriodicTasks with co-prime
 * periods (so firings interleave rather than batch), run until ~@p total
 * dispatches. Warmup grows the slab and the heap first; the measured
 * region must not allocate.
 */
Scenario
RunPeriodic(uint64_t total, int series)
{
    aeo::Simulator sim;
    std::vector<uint64_t> fired(static_cast<size_t>(series), 0);
    // Co-prime-ish microsecond periods near 200 us — ~5 kHz, the monitor's
    // regime.
    std::vector<std::unique_ptr<aeo::PeriodicTask>> tasks;
    for (int i = 0; i < series; ++i) {
        uint64_t* slot = &fired[static_cast<size_t>(i)];
        tasks.push_back(std::make_unique<aeo::PeriodicTask>(
            &sim, [slot] { ++*slot; }));
        tasks.back()->Start(aeo::SimTime::Micros(191 + 2 * i));
    }
    // Warmup: populate the slab, the heap vector, and the executed counters.
    sim.RunFor(aeo::SimTime::Millis(20));

    const uint64_t start_events = sim.executed_events();
    const uint64_t start_allocs = g_alloc_count.load(std::memory_order_relaxed);
    const double start = aeo::bench::MonotonicSeconds();
    while (sim.executed_events() - start_events < total) {
        sim.RunFor(aeo::SimTime::Millis(100));
    }
    const double seconds =
        aeo::bench::MonotonicSeconds() - start;
    const uint64_t allocs =
        g_alloc_count.load(std::memory_order_relaxed) - start_allocs;

    Scenario s;
    s.name = "periodic_steady_state";
    s.ops = sim.executed_events() - start_events;
    s.seconds = seconds;
    s.allocations = allocs;
    return s;
}

/**
 * One-shot churn: @p chains self-rescheduling one-shot events — the device
 * boundary-event shape. Each firing re-schedules through Acquire/Release on
 * the free list; after warmup the slab stops growing and dispatch is
 * allocation-free.
 */
Scenario
RunOneShotChurn(uint64_t total, int chains)
{
    aeo::Simulator sim;
    struct Chain {
        aeo::Simulator* sim;
        aeo::SimTime period;
        void Fire()
        {
            sim->ScheduleAfter(period, [this] { Fire(); });
        }
    };
    std::vector<Chain> chain_objs;
    chain_objs.reserve(static_cast<size_t>(chains));
    for (int i = 0; i < chains; ++i) {
        chain_objs.push_back(Chain{&sim, aeo::SimTime::Micros(193 + 2 * i)});
    }
    for (Chain& c : chain_objs) {
        c.Fire();
    }
    sim.RunFor(aeo::SimTime::Millis(20));

    const uint64_t start_events = sim.executed_events();
    const uint64_t start_allocs = g_alloc_count.load(std::memory_order_relaxed);
    const double start = aeo::bench::MonotonicSeconds();
    while (sim.executed_events() - start_events < total) {
        sim.RunFor(aeo::SimTime::Millis(100));
    }
    const double seconds =
        aeo::bench::MonotonicSeconds() - start;
    const uint64_t allocs =
        g_alloc_count.load(std::memory_order_relaxed) - start_allocs;

    Scenario s;
    s.name = "oneshot_churn";
    s.ops = sim.executed_events() - start_events;
    s.seconds = seconds;
    s.allocations = allocs;
    return s;
}

/**
 * Schedule/cancel mix: events armed and cancelled before firing (the
 * deadline-supervisor shape). Counts a schedule+cancel pair as one
 * dispatch-equivalent for the rate columns. Cancelled ids stay in the heap
 * until their instant reaches the top, so warmup first runs the heap up to
 * its high-water mark of about ten rounds of stale entries.
 */
Scenario
RunScheduleCancel(uint64_t total)
{
    aeo::Simulator sim;
    // Keep one PeriodicTask heartbeat so time can advance past cancelled
    // ids.
    uint64_t beats = 0;
    aeo::PeriodicTask heartbeat(&sim, [&beats] { ++beats; });
    heartbeat.Start(aeo::SimTime::Millis(1));
    sim.RunFor(aeo::SimTime::Millis(5));

    uint64_t pairs = 0;
    const auto run_pairs = [&sim, &pairs](uint64_t n) {
        for (uint64_t i = 0; i < n; ++i) {
            const aeo::EventId id =
                sim.ScheduleAfter(aeo::SimTime::Millis(10), [] {});
            sim.Cancel(id);
            ++pairs;
            if ((pairs & 0xfff) == 0) {
                sim.RunFor(aeo::SimTime::Millis(1));
            }
        }
    };
    run_pairs(0x1000 * 20);

    const uint64_t start_pairs = pairs;
    const uint64_t start_allocs = g_alloc_count.load(std::memory_order_relaxed);
    const double start = aeo::bench::MonotonicSeconds();
    run_pairs(total);
    const double seconds =
        aeo::bench::MonotonicSeconds() - start;
    const uint64_t allocs =
        g_alloc_count.load(std::memory_order_relaxed) - start_allocs;

    Scenario s;
    s.name = "schedule_cancel";
    s.ops = pairs - start_pairs;
    s.seconds = seconds;
    s.allocations = allocs;
    return s;
}

/**
 * Lazy sampler batches: a 5 kHz MonsoonMonitor (constant power, no fault
 * injector) on the simulator's sampler series, its batches cut by a
 * self-rescheduling one-shot every 7.9 ms — about 40 samples per real
 * dispatch, the ratio the paper workloads run at — and by RunFor
 * deadlines. The time per sample includes that one-shot's dispatch,
 * amortized over its batch, and the meter's per-sample Gaussian draw.
 */
Scenario
RunSamplerBatch(uint64_t total)
{
    aeo::Simulator sim;
    aeo::MonsoonMonitor monitor(
        &sim, [] { return aeo::Milliwatts(1000.0); }, 1);
    struct Chain {
        aeo::Simulator* sim;
        void Fire()
        {
            sim->ScheduleAfter(aeo::SimTime::Micros(7900), [this] { Fire(); });
        }
    };
    Chain chain{&sim};
    chain.Fire();
    monitor.Start();
    sim.RunFor(aeo::SimTime::Millis(100));

    const uint64_t start_samples = monitor.sample_count();
    const uint64_t start_allocs = g_alloc_count.load(std::memory_order_relaxed);
    const double start = aeo::bench::MonotonicSeconds();
    while (monitor.sample_count() - start_samples < total) {
        sim.RunFor(aeo::SimTime::Millis(100));
    }
    const double seconds = aeo::bench::MonotonicSeconds() - start;
    const uint64_t allocs =
        g_alloc_count.load(std::memory_order_relaxed) - start_allocs;

    Scenario s;
    s.name = "sampler_batch";
    s.op = "sample";
    s.ops = monitor.sample_count() - start_samples;
    s.seconds = seconds;
    s.allocations = allocs;
    return s;
}

}  // namespace

int
main(int argc, char** argv)
{
    using namespace aeo;
    SetLogLevel(LogLevel::kWarn);
    const bench::BenchArgs args = bench::ParseBenchArgs(argc, argv);
    bench::PrintHeader("P2 / event hot path",
                       "Slab event core: dispatch rate and allocations");

    const uint64_t total = args.fast ? 2'000'000ULL : 10'000'000ULL;
    std::vector<Scenario> scenarios;
    scenarios.push_back(RunPeriodic(total, 8));
    scenarios.push_back(RunOneShotChurn(total, 8));
    scenarios.push_back(RunScheduleCancel(total / 2));
    scenarios.push_back(RunSamplerBatch(total));

    TextTable table({"Scenario", "Op", "Ops", "Ops/s", "ns/op", "Allocs/op"});
    for (const Scenario& s : scenarios) {
        table.AddRow({s.name, s.op,
                      StrFormat("%llu", (unsigned long long)s.ops),
                      StrFormat("%.3g", s.ops_per_second()),
                      StrFormat("%.1f", s.ns_per_op()),
                      StrFormat("%.3f", s.allocs_per_op())});
    }
    std::printf("%s\n", table.ToString().c_str());

    bool hot_paths_allocation_free = true;
    for (const Scenario& s : scenarios) {
        if (s.allocations != 0) {
            hot_paths_allocation_free = false;
            std::fprintf(stderr,
                         "FAIL: %s performed %llu heap allocations in the "
                         "steady state\n",
                         s.name.c_str(), (unsigned long long)s.allocations);
        }
    }

    std::string json = "{\n  \"bench\": \"event_hotpath\",\n  \"scenarios\": [\n";
    for (size_t i = 0; i < scenarios.size(); ++i) {
        const Scenario& s = scenarios[i];
        json += StrFormat(
            "    {\"name\": \"%s\", \"op\": \"%s\", \"ops\": %llu, "
            "\"ops_per_second\": %.0f, \"ns_per_op\": %.2f, "
            "\"allocations\": %llu, \"allocs_per_op\": %.6f}%s\n",
            s.name.c_str(), s.op.c_str(), (unsigned long long)s.ops,
            s.ops_per_second(), s.ns_per_op(),
            (unsigned long long)s.allocations, s.allocs_per_op(),
            i + 1 < scenarios.size() ? "," : "");
    }
    json += StrFormat("  ],\n  \"hot_paths_allocation_free\": %s\n}\n",
                      hot_paths_allocation_free ? "true" : "false");
    const std::string json_path = "BENCH_event_hotpath.json";
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    AEO_ASSERT(f != nullptr, "cannot open %s", json_path.c_str());
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("Wrote %s\n", json_path.c_str());

    return hot_paths_allocation_free ? 0 : 1;
}
