/**
 * @file
 * The discrete-event queue at the heart of the device simulator.
 *
 * Events are callbacks scheduled at absolute simulated times. Ties are
 * broken by insertion order so runs are deterministic. Events can be
 * cancelled through the id returned at scheduling time.
 *
 * Storage model (DESIGN.md §14): callbacks live in a slab of event records
 * threaded on a free list — no per-event heap allocation and no hash
 * operations anywhere on the dispatch path. Heap entries index the slab
 * directly; ids carry a generation tag so Cancel() of a stale id (already
 * ran, already cancelled, slot since reused) is detected exactly. Every
 * event is a one-shot: a periodic timer (PeriodicTask) re-arms itself as a
 * fresh one-shot before its callback runs, which recycles the slot just
 * freed, so steady-state periodic firing allocates nothing either.
 *
 * The dispatch order contract is unchanged from the original
 * unordered_map-backed queue: strictly increasing (when, seq), one seq
 * per schedule.
 *
 * The 5 kHz power monitor does not use the heap at all: it is the queue's
 * one lazy sampler series (StartSampler), whose owed ticks are delivered
 * in one batch just before each real dispatch, in the (when, seq) order an
 * eager self-re-arming series would have fired them.
 */
#ifndef AEO_SIM_EVENT_QUEUE_H_
#define AEO_SIM_EVENT_QUEUE_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "sim/event_callback.h"
#include "sim/time.h"

namespace aeo {

/** Opaque handle identifying a scheduled event: a slab index plus the
 * slot's generation at allocation time (see EventQueue). */
using EventId = uint64_t;

/** Sentinel returned for "no event". */
inline constexpr EventId kInvalidEventId = 0;

/**
 * Process-wide count of executed events, aggregated as queues are
 * destroyed (each run's Device owns one). Benches report it as events/sec;
 * the dispatch path itself touches only the queue-local counter.
 */
uint64_t TotalExecutedEvents();

/**
 * Receives one batch of lazy sampler ticks, at @p first,
 * @p first + @p period, ..., @p first + (@p n - 1) * @p period (n >= 1).
 * See EventQueue::StartSampler for what it may and may not do.
 */
using SamplerFn = void (*)(void* context, SimTime first, uint64_t n,
                           SimTime period);

/** Time-ordered queue of callbacks with stable tie-breaking. */
class EventQueue {
  public:
    EventQueue() = default;
    ~EventQueue();

    EventQueue(const EventQueue&) = delete;
    EventQueue& operator=(const EventQueue&) = delete;

    /** Schedules @p fn at absolute time @p when; returns a cancellable id. */
    template <typename F>
    EventId
    Schedule(SimTime when, F&& fn)
    {
        if constexpr (requires { static_cast<bool>(fn); }) {
            AEO_ASSERT(static_cast<bool>(fn), "scheduling a null callback");
        }
        const uint32_t slot = Acquire();
        Slot& s = slots_[slot];
        s.fn = EventCallback(std::forward<F>(fn));
        s.armed = true;
        // aeo-lint: allow(hot-path-alloc) -- the heap reuses its capacity;
        // it grows only past the armed-timer high-water mark.
        heap_.push_back(HeapEntry{when, next_seq_++, slot, s.generation});
        SiftUp(heap_.size() - 1);
        ++pending_count_;
        return (static_cast<uint64_t>(s.generation) << 32) |
               static_cast<uint64_t>(slot + 1);
    }

    /**
     * Arms the queue's lazy sampler series: ticks at @p first, then every
     * @p period (> 0), until StopSampler(). The series takes the (when,
     * seq) place of an eager PeriodicTask, which re-arms as a one-shot
     * before each tick, but its ticks never enter the heap: RunNext()
     * hands @p fn every tick ordered before the event it is about to
     * dispatch, in one call, and DeliverSamplerTicksThrough() hands it the
     * ticks up to a deadline. Each tick consumes one seq, as the eager
     * re-arm does, so a tick and a real event at the same instant
     * keep the eager order: an event scheduled before the previous tick
     * fired runs first, one scheduled after it runs second.
     *
     * @p fn must not schedule, cancel or stop anything, and must take tick
     * instants from its arguments, not from the simulator clock. One
     * sampler per queue.
     */
    void
    StartSampler(SimTime first, SimTime period, SamplerFn fn, void* context)
    {
        AEO_ASSERT(period > SimTime::Zero(), "sampler period must be positive");
        AEO_ASSERT(fn != nullptr, "sampler needs a callback");
        AEO_ASSERT(sampler_.fn == nullptr, "one sampler per queue");
        sampler_ = Sampler{first, next_seq_++, period, fn, context};
    }

    /** Disarms the sampler series; ticks not yet delivered are dropped. */
    void StopSampler() { sampler_.fn = nullptr; }

    /** Delivers the sampler ticks at or before @p deadline. */
    void
    DeliverSamplerTicksThrough(SimTime deadline)
    {
        if (sampler_.fn == nullptr || sampler_.when > deadline) {
            return;
        }
        DeliverSamplerTicks(static_cast<uint64_t>(
            (deadline - sampler_.when).micros() / sampler_.period.micros() +
            1));
    }

    /**
     * Cancels a previously scheduled event.
     *
     * @return true if the event was pending and is now cancelled; false if it
     *         already ran, was already cancelled, or the id is unknown.
     */
    bool
    Cancel(EventId id)
    {
        const uint64_t raw_slot = (id & 0xffffffffULL);
        if (raw_slot == 0 || raw_slot > slots_.size()) {
            return false;
        }
        const auto slot = static_cast<uint32_t>(raw_slot - 1);
        Slot& s = slots_[slot];
        if (!s.armed || s.generation != static_cast<uint32_t>(id >> 32)) {
            return false;
        }
        Release(slot);
        return true;
    }

    /** True when no runnable events remain. */
    bool
    Empty() const
    {
        DropStaleHead();
        return heap_.empty();
    }

    /** Time of the earliest pending event; panics if empty. */
    SimTime
    NextTime() const
    {
        DropStaleHead();
        AEO_ASSERT(!heap_.empty(), "NextTime() on empty event queue");
        return heap_.front().when;
    }

    /** Stores the earliest pending time and returns true, or returns false
     * when no runnable events remain (the run loop's fused check). */
    bool
    NextTimeIfAny(SimTime* when) const
    {
        DropStaleHead();
        if (heap_.empty()) {
            return false;
        }
        *when = heap_.front().when;
        return true;
    }

    /**
     * Delivers the sampler ticks ordered before the earliest pending event,
     * then removes and runs that event.
     *
     * @return the time of the event that ran; panics if empty.
     */
    // aeo: hot-path
    SimTime
    RunNext()
    {
        DropStaleHead();
        AEO_ASSERT(!heap_.empty(), "RunNext() on empty event queue");
        const HeapEntry entry = heap_.front();
        DeliverSamplerTicksBefore(entry);
        ++executed_count_;
        PopTop();
        // Move the callback out and free the slot first, so the callback
        // can schedule into (and Cancel() ids of) a fully consistent queue
        // — matching the old erase-before-invoke order.
        EventCallback fn = std::move(slots_[entry.slot].fn);
        Release(entry.slot);
        fn();
        return entry.when;
    }

    /** Number of pending (non-cancelled) events; the sampler series does
     * not count. */
    size_t PendingCount() const { return pending_count_; }

    /** Total events executed so far (for instrumentation); sampler ticks
     * are not events and are not counted. */
    uint64_t executed_count() const { return executed_count_; }

    /** Slab capacity (for tests: bounded by peak concurrency, not churn). */
    size_t SlabSize() const { return slots_.size(); }

  private:
    /** One slab record. Lives in a deque so growing the slab never moves
     * a record. */
    struct Slot {
        EventCallback fn;
        /** Tag carried by ids and heap entries; bumped whenever the slot's
         * current registration dies, so stale references never match. */
        uint32_t generation = 1;
        /** Free-list link, valid while the slot is free. */
        uint32_t next_free = 0;
        /** A live registration occupies this slot. */
        bool armed = false;
    };

    struct HeapEntry {
        SimTime when;
        uint64_t seq;
        uint32_t slot;
        uint32_t generation;
    };

    /** Heap priority: earliest (when, seq) on top. Seqs are unique, so this
     * is a strict total order — heap layout never leaks into run order. */
    static bool
    Earlier(const HeapEntry& a, const HeapEntry& b)
    {
        if (a.when != b.when) {
            return a.when < b.when;
        }
        return a.seq < b.seq;
    }

    static constexpr uint32_t kNoFreeSlot = 0xffffffffu;

    /** The lazy sampler series; armed while fn is set. */
    struct Sampler {
        /** Instant and seq of the next owed tick. */
        SimTime when;
        uint64_t seq = 0;
        SimTime period;
        SamplerFn fn = nullptr;
        void* context = nullptr;
    };

    /** Delivers the sampler ticks ordered before @p next. */
    void
    DeliverSamplerTicksBefore(const HeapEntry& next)
    {
        if (sampler_.fn == nullptr ||
            !Earlier(HeapEntry{sampler_.when, sampler_.seq, 0, 0}, next)) {
            return;
        }
        // The first owed tick carries its own seq. Every later one gets a
        // fresh seq above all pending ones, so it precedes only events at
        // strictly later instants: ceil(gap / period) ticks, at least one.
        const int64_t gap = (next.when - sampler_.when).micros();
        const int64_t period = sampler_.period.micros();
        DeliverSamplerTicks(static_cast<uint64_t>(
            std::max<int64_t>(1, (gap + period - 1) / period)));
    }

    /** Advances the sampler past @p n ticks — consuming one seq each, the
     * last one becoming the series' seq — then hands them to its callback. */
    void
    DeliverSamplerTicks(uint64_t n)
    {
        const SimTime first = sampler_.when;
        sampler_.when = first + sampler_.period * static_cast<int64_t>(n);
        next_seq_ += n;
        sampler_.seq = next_seq_ - 1;
        sampler_.fn(sampler_.context, first, n, sampler_.period);
    }

    /** Restores the min-heap invariant upward from @p i (after push_back). */
    void
    SiftUp(size_t i) const
    {
        HeapEntry moving = heap_[i];
        while (i > 0) {
            const size_t parent = (i - 1) / 2;
            if (!Earlier(moving, heap_[parent])) {
                break;
            }
            heap_[i] = heap_[parent];
            i = parent;
        }
        heap_[i] = moving;
    }

    /** Restores the min-heap invariant downward from @p i (after a pop). */
    void
    SiftDown(size_t i) const
    {
        const size_t n = heap_.size();
        HeapEntry moving = heap_[i];
        for (;;) {
            size_t child = 2 * i + 1;
            if (child >= n) {
                break;
            }
            if (child + 1 < n && Earlier(heap_[child + 1], heap_[child])) {
                ++child;
            }
            if (!Earlier(heap_[child], moving)) {
                break;
            }
            heap_[i] = heap_[child];
            i = child;
        }
        heap_[i] = moving;
    }

    /** Removes the heap's top entry. */
    void
    PopTop() const
    {
        heap_.front() = heap_.back();
        heap_.pop_back();
        if (!heap_.empty()) {
            SiftDown(0);
        }
    }

    uint32_t
    Acquire()
    {
        if (free_head_ != kNoFreeSlot) {
            const uint32_t slot = free_head_;
            free_head_ = slots_[slot].next_free;
            return slot;
        }
        // aeo-lint: allow(hot-path-alloc) -- pool growth: taken only when
        // the free list is empty; the steady state recycles slots.
        slots_.emplace_back();
        return static_cast<uint32_t>(slots_.size() - 1);
    }

    /** Ends the slot's registration — bumping its generation invalidates
     * its ids and, lazily, its heap entry — destroys the callback and
     * returns the slot to the free list. */
    void
    Release(uint32_t slot)
    {
        Slot& s = slots_[slot];
        s.armed = false;
        if (++s.generation == 0) {
            s.generation = 1;  // 0 is reserved so decoded ids never match
        }
        --pending_count_;
        s.fn.Reset();
        s.next_free = free_head_;
        free_head_ = slot;
    }

    /** Pops heap entries whose registration died (cancelled, or the slot
     * since reused under a new generation); amortized O(1) per cancelled
     * event. */
    void
    DropStaleHead() const
    {
        while (!heap_.empty()) {
            const HeapEntry& top = heap_.front();
            const Slot& s = slots_[top.slot];
            if (s.armed && s.generation == top.generation) {
                return;
            }
            PopTop();
        }
    }

    /** Stable-address slab of event records. */
    std::deque<Slot> slots_;
    /** Binary heap over live (and lazily-dropped stale) entries. */
    mutable std::vector<HeapEntry> heap_;
    Sampler sampler_;
    uint32_t free_head_ = kNoFreeSlot;
    uint64_t next_seq_ = 1;
    size_t pending_count_ = 0;
    uint64_t executed_count_ = 0;
};

}  // namespace aeo

#endif  // AEO_SIM_EVENT_QUEUE_H_
