/**
 * @file
 * Property tests for the slab-backed EventQueue (DESIGN.md §14), checked
 * against a deliberately naive reference model, plus the zero-allocation
 * steady-state contract measured through a counting operator-new hook.
 *
 * The reference model is a flat vector scanned linearly for the earliest
 * (when, seq) pair — quadratic and allocation-happy, but obviously correct.
 * Random interleavings of schedule / cancel / stale-cancel / RunNext must
 * produce the identical firing log and identical Cancel() return values on
 * both implementations, across generations of slot reuse.
 *
 * Periodic timers and the lazy sampler series are checked the same way,
 * one level up: a Simulator whose PeriodicTasks re-arm as one-shots and
 * whose sampler ticks arrive in batches must log every tick instant and
 * every event in the order a reference executive logs them when each
 * series, the sampler included, is one eager periodic entry in the naive
 * queue — under random schedules, cancels, series started and stopped,
 * RunUntil at random deadlines, Stop() from inside callbacks, and events
 * placed exactly on tick instants.
 *
 * This binary runs under the unit suite and, via its robustness and
 * concurrency labels, under the ASan/UBSan and TSan CI jobs — the slab's
 * generation-reuse paths are exactly where lifetime bugs would hide.
 */
#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "common/random.h"
#include "sim/periodic_task.h"
#include "sim/simulator.h"

// GCC pairs the inlined allocator calls with this TU's replacement
// operator new (malloc-backed) and flags the free() in the replacement
// delete as mismatched — a false positive for a conforming global
// replacement pair, so the check is off for this file only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {

/** Heap operations observed by the counting hook below. */
std::atomic<uint64_t> g_alloc_count{0};

}  // namespace

// Counting allocator hook: every heap allocation in this test binary passes
// through here, so the zero-allocation dispatch contract is measured, not
// inferred. Per-binary only — the library under test is unchanged.
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
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size)) {
        return p;
    }
    throw std::bad_alloc();
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

namespace aeo {
namespace {

/**
 * The naive reference: entries in a vector, earliest (when, seq) found by
 * linear scan. Periodic entries consume a fresh seq at each re-arm, before
 * delivery — the order PeriodicTask's reschedule-before-deliver gives.
 */
class ReferenceQueue {
  public:
    /** Returns an opaque id; @p period zero means one-shot. */
    uint64_t
    Schedule(SimTime when, SimTime period, int tag)
    {
        entries_.push_back(Entry{next_id_++, next_seq_++, when, period, tag});
        return entries_.back().id;
    }

    bool
    Cancel(uint64_t id)
    {
        for (size_t i = 0; i < entries_.size(); ++i) {
            if (entries_[i].id == id) {
                entries_.erase(entries_.begin() +
                               static_cast<std::ptrdiff_t>(i));
                return true;
            }
        }
        return false;
    }

    bool Empty() const { return entries_.empty(); }

    /** Instant of the earliest entry; the queue must not be empty. */
    SimTime
    NextTime() const
    {
        return entries_[Earliest()].when;
    }

    /** Fires the earliest entry; returns its (tag, when). */
    std::pair<int, SimTime>
    RunNext()
    {
        const size_t best = Earliest();
        Entry& chosen = entries_[best];
        const std::pair<int, SimTime> fired{chosen.tag, chosen.when};
        if (chosen.period > SimTime::Zero()) {
            chosen.seq = next_seq_++;
            chosen.when = chosen.when + chosen.period;
        } else {
            entries_.erase(entries_.begin() +
                           static_cast<std::ptrdiff_t>(best));
        }
        return fired;
    }

  private:
    struct Entry {
        uint64_t id;
        uint64_t seq;
        SimTime when;
        SimTime period;
        int tag;
    };

    size_t
    Earliest() const
    {
        size_t best = 0;
        for (size_t i = 1; i < entries_.size(); ++i) {
            const Entry& e = entries_[i];
            const Entry& b = entries_[best];
            if (e.when < b.when || (e.when == b.when && e.seq < b.seq)) {
                best = i;
            }
        }
        return best;
    }

    std::vector<Entry> entries_;
    uint64_t next_id_ = 1;
    uint64_t next_seq_ = 1;
};

/** One randomized interleaving driven by @p seed; the real queue and the
 * reference must agree on every firing and every Cancel() result. */
void
RunInterleaving(uint64_t seed, int ops)
{
    Rng rng(seed);
    EventQueue queue;
    ReferenceQueue ref;

    std::vector<std::pair<int, SimTime>> real_log;
    std::vector<std::pair<int, SimTime>> ref_log;
    // Ids handed out so far, real and reference side by side. Never pruned:
    // picking an already-dead pair is exactly the stale-cancel case.
    std::vector<std::pair<EventId, uint64_t>> ids;
    SimTime now = SimTime::Zero();
    int next_tag = 0;

    for (int op = 0; op < ops; ++op) {
        const int64_t roll = rng.UniformInt(0, 99);
        if (roll < 45) {
            // One-shot at now + [0, 50] us; ties with pending events are
            // frequent by construction.
            const SimTime when =
                now + SimTime::Micros(rng.UniformInt(0, 50));
            const int tag = next_tag++;
            const EventId real = queue.Schedule(
                when, [tag, &real_log, when] {
                    real_log.emplace_back(tag, when);
                });
            ids.emplace_back(real, ref.Schedule(when, SimTime::Zero(), tag));
        } else if (roll < 75 && !ids.empty()) {
            // Cancel a random id — live, already-fired, already-cancelled
            // or since-reused slot; both sides must agree on the result.
            const auto& pick = ids[static_cast<size_t>(
                rng.UniformInt(0, static_cast<int64_t>(ids.size()) - 1))];
            EXPECT_EQ(queue.Cancel(pick.first), ref.Cancel(pick.second))
                << "seed " << seed << " op " << op;
        } else {
            // Drain a few events from both sides.
            const int64_t burst = rng.UniformInt(1, 8);
            for (int64_t i = 0; i < burst && !queue.Empty(); ++i) {
                ASSERT_FALSE(ref.Empty()) << "seed " << seed << " op " << op;
                now = queue.RunNext();
                ref_log.push_back(ref.RunNext());
                ASSERT_EQ(real_log.back(), ref_log.back())
                    << "seed " << seed << " op " << op;
            }
            EXPECT_EQ(queue.Empty(), ref.Empty())
                << "seed " << seed << " op " << op;
        }
    }

    while (!queue.Empty()) {
        ASSERT_FALSE(ref.Empty()) << "seed " << seed;
        queue.RunNext();
        ref_log.push_back(ref.RunNext());
    }
    EXPECT_TRUE(ref.Empty()) << "seed " << seed;
    EXPECT_EQ(real_log, ref_log) << "seed " << seed;
}

TEST(EventQueuePropertyTest, MatchesReferenceModelAcrossSeeds)
{
    for (uint64_t seed = 1; seed <= 40; ++seed) {
        RunInterleaving(seed, 400);
    }
}

/** Log tags that are not event ids. */
constexpr int kTickTag = -1;
constexpr int kCancelHitTag = -2;
constexpr int kCancelMissTag = -3;
constexpr int kRunEndTag = -4;
constexpr int kStopTag = -5;

/** One log line: an event id (or one of the tags above) and its instant. */
using LogEntry = std::pair<int, SimTime>;

/**
 * The script both executives run. Every decision is drawn from one seeded
 * Rng in firing order, so two executives that fire in the same order make
 * the same decisions, and the first divergence shows in the log.
 */
class SamplerScript {
  public:
    virtual ~SamplerScript() = default;

    std::vector<LogEntry>
    Run(uint64_t seed, int segments)
    {
        rng_ = Rng(seed);
        period_ = SimTime::Micros(rng_.UniformInt(3, 9));
        // Events armed before the sampler, so its first seq sits among
        // theirs.
        for (int i = 0; i < 3; ++i) {
            ScheduleOneShot();
        }
        ToggleSampler();
        for (int segment = 0; segment < segments; ++segment) {
            Act(false);
            if (rng_.Bernoulli(0.5)) {
                RunUntil(TickInstant(rng_.UniformInt(0, 6)));
            } else {
                RunUntil(Now() + period_ * rng_.UniformInt(0, 12));
            }
            log_.emplace_back(kRunEndTag, Now());
        }
        return log_;
    }

  protected:
    virtual SimTime Now() const = 0;
    virtual uint64_t ScheduleAt(SimTime when, int tag) = 0;
    /** Starts a periodic series, first firing one @p period from now. */
    virtual uint64_t StartSeries(SimTime period, int tag) = 0;
    virtual bool Cancel(uint64_t id) = 0;
    virtual void StartSampler(SimTime period) = 0;
    virtual void StopSampler() = 0;
    virtual void RequestStop() = 0;
    virtual void RunUntil(SimTime deadline) = 0;

    /** A real event fired: log it, then act on the script. */
    void
    OnEvent(int tag)
    {
        log_.emplace_back(tag, Now());
        Act(true);
    }

    /** A sampler tick: logged only, since a tick may not act. */
    void OnTick(SimTime when) { log_.emplace_back(kTickTag, when); }

  private:
    /** One random step: schedule, cancel, start a series, toggle the
     * sampler, or (inside a callback only) stop the run. */
    void
    Act(bool in_callback)
    {
        const int64_t roll = rng_.UniformInt(0, 99);
        if (roll < 30) {
            ScheduleOneShot();
        } else if (roll < 50) {
            // Exactly on the current or one of the next two tick
            // instants. Depending on whether the tick before it has fired
            // yet, the event lands before or after its tick.
            ids_.push_back(ScheduleAt(TickInstant(rng_.UniformInt(0, 2)),
                                      next_tag_++));
        } else if (roll < 56 && series_ < 4) {
            ++series_;
            ids_.push_back(StartSeries(
                period_ * rng_.UniformInt(1, 5) +
                    SimTime::Micros(rng_.UniformInt(0, 2)),
                next_tag_++));
        } else if (roll < 75 && !ids_.empty()) {
            const uint64_t id = ids_[static_cast<size_t>(
                rng_.UniformInt(0, static_cast<int64_t>(ids_.size()) - 1))];
            log_.emplace_back(Cancel(id) ? kCancelHitTag : kCancelMissTag,
                              Now());
        } else if (roll < 79) {
            ToggleSampler();
        } else if (roll < 84 && in_callback) {
            log_.emplace_back(kStopTag, Now());
            RequestStop();
        }
    }

    void
    ScheduleOneShot()
    {
        ids_.push_back(ScheduleAt(
            Now() + SimTime::Micros(rng_.UniformInt(0, 3 * period_.micros())),
            next_tag_++));
    }

    void
    ToggleSampler()
    {
        if (sampling_) {
            StopSampler();
        } else {
            origin_ = Now();
            StartSampler(period_);
        }
        sampling_ = !sampling_;
    }

    /** The @p ahead-th tick instant at or after now (of the current or,
     * when stopped, the last sampler phase). */
    SimTime
    TickInstant(int64_t ahead) const
    {
        const int64_t p = period_.micros();
        const int64_t owed = ((Now() - origin_).micros() + p - 1) / p;
        return origin_ + period_ * (owed + ahead);
    }

    Rng rng_{1};
    SimTime period_;
    SimTime origin_;
    bool sampling_ = false;
    int series_ = 0;
    int next_tag_ = 0;
    std::vector<uint64_t> ids_;
    std::vector<LogEntry> log_;
};

/** The reference: the naive queue under a clock, the sampler being one
 * more eager periodic entry in it. */
class EagerExecutive final : public SamplerScript {
  protected:
    SimTime Now() const override { return now_; }

    uint64_t
    ScheduleAt(SimTime when, int tag) override
    {
        return queue_.Schedule(when, SimTime::Zero(), tag);
    }

    uint64_t
    StartSeries(SimTime period, int tag) override
    {
        return queue_.Schedule(now_ + period, period, tag);
    }

    bool Cancel(uint64_t id) override { return queue_.Cancel(id); }

    void
    StartSampler(SimTime period) override
    {
        sampler_ = queue_.Schedule(now_ + period, period, kTickTag);
    }

    void StopSampler() override { queue_.Cancel(sampler_); }

    void RequestStop() override { stop_ = true; }

    void
    RunUntil(SimTime deadline) override
    {
        stop_ = false;
        while (!stop_ && !queue_.Empty() && queue_.NextTime() <= deadline) {
            const auto [tag, when] = queue_.RunNext();
            now_ = when;
            if (tag == kTickTag) {
                OnTick(when);
            } else {
                OnEvent(tag);
            }
        }
        if (!stop_) {
            now_ = deadline;
        }
    }

  private:
    ReferenceQueue queue_;
    SimTime now_;
    bool stop_ = false;
    uint64_t sampler_ = 0;
};

/** The real Simulator: series are PeriodicTasks, the sampler its lazy
 * sampler series. */
class LazyExecutive final : public SamplerScript {
  protected:
    SimTime Now() const override { return sim_.Now(); }

    uint64_t
    ScheduleAt(SimTime when, int tag) override
    {
        handles_.push_back(
            Handle{sim_.ScheduleAt(when, [this, tag] { OnEvent(tag); }),
                   nullptr});
        return handles_.size() - 1;
    }

    uint64_t
    StartSeries(SimTime period, int tag) override
    {
        tasks_.push_back(std::make_unique<PeriodicTask>(
            &sim_, [this, tag] { OnEvent(tag); }));
        tasks_.back()->Start(period);
        handles_.push_back(Handle{kInvalidEventId, tasks_.back().get()});
        return handles_.size() - 1;
    }

    /** A series cancels as the reference's periodic entry does: true
     * while it still runs. */
    bool
    Cancel(uint64_t id) override
    {
        const Handle& handle = handles_[id];
        if (handle.task == nullptr) {
            return sim_.Cancel(handle.event);
        }
        const bool running = handle.task->running();
        handle.task->Stop();
        return running;
    }

    void
    StartSampler(SimTime period) override
    {
        sim_.StartSampler(period, &LazyExecutive::Ticks, this);
    }

    void StopSampler() override { sim_.StopSampler(); }

    void RequestStop() override { sim_.Stop(); }

    void RunUntil(SimTime deadline) override { sim_.RunUntil(deadline); }

  private:
    static void
    Ticks(void* self, SimTime first, uint64_t n, SimTime period)
    {
        for (uint64_t i = 0; i < n; ++i) {
            static_cast<LazyExecutive*>(self)->OnTick(
                first + period * static_cast<int64_t>(i));
        }
    }

    /** What a script id names: a one-shot, or a series. */
    struct Handle {
        EventId event;
        PeriodicTask* task;
    };

    Simulator sim_;
    /** Declared after sim_, so they stop before it goes. */
    std::vector<std::unique_ptr<PeriodicTask>> tasks_;
    std::vector<Handle> handles_;
};

TEST(EventQueuePropertyTest, LazySamplerMatchesEagerSeries)
{
    uint64_t ticks = 0;
    uint64_t stops = 0;
    for (uint64_t seed = 1; seed <= 40; ++seed) {
        EagerExecutive eager;
        LazyExecutive lazy;
        const std::vector<LogEntry> expected = eager.Run(seed, 400);
        const std::vector<LogEntry> actual = lazy.Run(seed, 400);
        ASSERT_EQ(actual.size(), expected.size()) << "seed " << seed;
        for (size_t i = 0; i < expected.size(); ++i) {
            ASSERT_EQ(actual[i], expected[i])
                << "seed " << seed << " line " << i;
        }
        for (const LogEntry& line : expected) {
            ticks += line.first == kTickTag ? 1 : 0;
            stops += line.first == kStopTag ? 1 : 0;
        }
    }
    // The script really exercised the batches and the stop path.
    EXPECT_GT(ticks, 10'000u);
    EXPECT_GT(stops, 0u);
}

TEST(EventQueuePropertyTest, SamplerTickAndEventOnSameInstant)
{
    // The tick at 2 ms takes its seq when the 1 ms tick fires. An event
    // at 2 ms scheduled before that runs first; one scheduled after it
    // runs second — the eager series' order.
    Simulator sim;
    std::vector<std::pair<int, int64_t>> log;
    sim.ScheduleAt(SimTime::Millis(2), [&] { log.emplace_back(1, 2000); });
    sim.StartSampler(
        SimTime::Millis(1),
        [](void* self, SimTime first, uint64_t n, SimTime period) {
            auto* out = static_cast<std::vector<std::pair<int, int64_t>>*>(
                self);
            for (uint64_t i = 0; i < n; ++i) {
                out->emplace_back(
                    0, (first + period * static_cast<int64_t>(i)).micros());
            }
        },
        &log);
    sim.ScheduleAt(SimTime::Micros(1500), [&] {
        sim.ScheduleAt(SimTime::Millis(2), [&] { log.emplace_back(2, 2000); });
    });
    sim.RunUntil(SimTime::Millis(3));
    EXPECT_EQ(log, (std::vector<std::pair<int, int64_t>>{
                       {0, 1000}, {1, 2000}, {0, 2000}, {2, 2000}, {0, 3000}}));
    EXPECT_EQ(sim.executed_events(), 3u);  // ticks are not events
}

TEST(EventQueuePropertyTest, SamplerBatchesDoNotAllocate)
{
    // Batches cut by dispatches and by deadlines touch the heap zero times.
    Simulator sim;
    struct Counter {
        uint64_t batches = 0;
        uint64_t ticks = 0;
    } counter;
    sim.StartSampler(
        SimTime::Micros(200),
        [](void* self, SimTime, uint64_t n, SimTime) {
            auto* c = static_cast<Counter*>(self);
            ++c->batches;
            c->ticks += n;
        },
        &counter);
    struct Chain {
        Simulator* sim;
        void
        Fire()
        {
            sim->ScheduleAfter(SimTime::Micros(1370), [this] { Fire(); });
        }
    };
    Chain chain{&sim};
    chain.Fire();
    sim.RunFor(SimTime::Millis(50));  // warmup

    const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
    const uint64_t batches_before = counter.batches;
    for (int i = 0; i < 1000; ++i) {
        sim.RunFor(SimTime::Micros(3001));
    }
    const uint64_t allocs =
        g_alloc_count.load(std::memory_order_relaxed) - before;
    EXPECT_GT(counter.batches - batches_before, 2000u);
    EXPECT_EQ(allocs, 0u) << "sampler batches must not allocate";
    // One tick per 200 us of the 50 ms + 3.001 s run.
    EXPECT_EQ(counter.ticks, (50'000u + 3'001'000u) / 200u);
}

TEST(EventQueuePropertyTest, GenerationTagsSurviveHeavySlotReuse)
{
    // Hammer one slot through many generations; every stale id must keep
    // reporting false without disturbing the live registration.
    EventQueue queue;
    std::vector<EventId> stale;
    for (int round = 0; round < 1000; ++round) {
        const EventId id = queue.Schedule(SimTime::Micros(round), [] {});
        ASSERT_TRUE(queue.Cancel(id));
        stale.push_back(id);
    }
    int fired = 0;
    const EventId live =
        queue.Schedule(SimTime::Micros(5), [&fired] { ++fired; });
    for (const EventId id : stale) {
        EXPECT_FALSE(queue.Cancel(id));
    }
    EXPECT_EQ(queue.PendingCount(), 1u);
    queue.RunNext();
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(queue.Cancel(live));
    // Churn never grew the slab past peak concurrency.
    EXPECT_LE(queue.SlabSize(), 2u);
}

TEST(EventQueuePropertyTest, RepeatingReArmOrdersBeforeCallbackSchedules)
{
    // A PeriodicTask re-arms (consuming a seq) before its callback runs, so
    // a one-shot the callback schedules at the exact next-occurrence time
    // must fire *after* that occurrence.
    Simulator sim;
    std::vector<int> order;
    bool armed = false;
    PeriodicTask task(&sim, [&] {
        order.push_back(0);
        if (!armed) {
            armed = true;
            sim.ScheduleAt(SimTime::Millis(2), [&] { order.push_back(1); });
        }
    });
    task.Start(SimTime::Millis(1));
    // t=1ms: the task fires and schedules the one-shot at t=2ms; at t=2ms
    // the task fires again (earlier seq), then the one-shot.
    sim.RunUntil(SimTime::Millis(2));
    EXPECT_EQ(order, (std::vector<int>{0, 0, 1}));
    task.Stop();
    sim.RunUntil(SimTime::Millis(10));
    EXPECT_EQ(sim.executed_events(), 3u);
}

TEST(EventQueuePropertyTest, SteadyStateDispatchDoesNotAllocate)
{
    // The tentpole contract: after warmup, PeriodicTask firing and one-shot
    // churn touch the heap zero times per event.
    Simulator sim;
    uint64_t fired = 0;
    std::vector<std::unique_ptr<PeriodicTask>> tasks;
    for (int i = 0; i < 8; ++i) {
        tasks.push_back(std::make_unique<PeriodicTask>(
            &sim, [&fired] { ++fired; }));
        tasks.back()->Start(SimTime::Micros(191 + 2 * i));
    }
    struct Chain {
        Simulator* sim;
        uint64_t* fired;
        void
        Fire()
        {
            *fired += 1;
            sim->ScheduleAfter(SimTime::Micros(197), [this] { Fire(); });
        }
    };
    Chain chain{&sim, &fired};
    sim.ScheduleAfter(SimTime::Micros(50), [&chain] { chain.Fire(); });

    // Warmup: grow the slab, the heap vector and any lazy library state.
    sim.RunFor(SimTime::Millis(200));

    const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
    const uint64_t fired_before = fired;
    const uint64_t events_before = sim.executed_events();
    sim.RunFor(SimTime::FromSeconds(2));
    const uint64_t allocs =
        g_alloc_count.load(std::memory_order_relaxed) - before;
    EXPECT_EQ(allocs, 0u) << "steady-state dispatch must not allocate";
    EXPECT_EQ(fired - fired_before, sim.executed_events() - events_before);
    EXPECT_GT(fired - fired_before, 80'000u);
}

}  // namespace
}  // namespace aeo
