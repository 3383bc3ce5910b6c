/**
 * @file
 * In-memory spans for the traced run. The benchmark opens a span around
 * each call it makes into a library layer (never inside the library), keeps
 * every span in memory for the per-layer figures. A disabled
 * tracer records nothing: a Scope on it is one null test.
 */
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/** Host monotonic time, nanoseconds. */
int64_t NowNs();

/** One closed span. Times are host nanoseconds from NowNs(). */
struct Span {
    uint32_t id = 0;
    /** Enclosing span's id; 0 for a root. */
    uint32_t parent = 0;
    /** Shared by all spans of one repetition of the workload. */
    uint32_t trace_id = 0;
    /** Dense per-run worker index (0 = the main thread). */
    uint32_t thread = 0;
    /** Static string naming the layer call, e.g. "harness.RunDefault". */
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;

    double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

/**
 * Self time of @p parent: its duration minus the part of its interval that
 * the union of @p children covers. Children may nest, overlap (parallel
 * workers) or stick out of the parent; only the covered part inside the
 * parent's interval is subtracted, once.
 */
double SelfSeconds(const Span& parent, const std::vector<Span>& children);

/** Thread-safe span recorder. */
class Tracer {
  public:
    /** RAII span; a no-op when the tracer is null or disabled. */
    class Scope {
      public:
        /** Child of the calling thread's innermost open span. */
        Scope(Tracer* tracer, const char* name);
        /** Child of @p parent (a span opened on another thread). */
        Scope(Tracer* tracer, const char* name, uint32_t parent);
        ~Scope();

        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

        /** This span's id (0 when not recording). */
        uint32_t id() const { return span_.id; }

      private:
        Tracer* tracer_;
        Span span_;
        uint32_t saved_current_ = 0;
    };

    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Tags spans opened from now on with @p trace_id. */
    void set_trace_id(uint32_t trace_id) { trace_id_.store(trace_id); }

    /** Every closed span, in closing order. */
    std::vector<Span> spans() const;

    /** Closed spans named @p name with the given trace id. */
    std::vector<Span> Find(const char* name, uint32_t trace_id) const;

    /** Closed spans whose parent is @p id. */
    std::vector<Span> ChildrenOf(uint32_t id) const;

  private:
    uint32_t NextId();
    uint32_t ThreadIndex();
    void Record(const Span& span);

    bool enabled_;
    std::atomic<uint32_t> trace_id_{0};
    mutable std::mutex mu_;
    std::vector<Span> spans_;
    uint32_t next_id_ = 0;
    std::vector<uint64_t> thread_keys_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
