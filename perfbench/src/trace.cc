#include "trace.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <string_view>
#include <thread>
#include <utility>

namespace perfbench {
namespace {

/** Innermost open span of the calling thread. */
thread_local uint32_t t_current_span = 0;

}  // namespace

int64_t
NowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
SelfSeconds(const Span& parent, const std::vector<Span>& children)
{
    std::vector<std::pair<int64_t, int64_t>> covered;
    covered.reserve(children.size());
    for (const Span& child : children) {
        const int64_t start = std::max(child.start_ns, parent.start_ns);
        const int64_t end = std::min(child.end_ns, parent.end_ns);
        if (end > start) {
            covered.emplace_back(start, end);
        }
    }
    std::sort(covered.begin(), covered.end());
    int64_t union_ns = 0;
    int64_t run_start = 0;
    int64_t run_end = 0;
    bool open = false;
    for (const auto& [start, end] : covered) {
        if (open && start <= run_end) {
            run_end = std::max(run_end, end);
            continue;
        }
        if (open) {
            union_ns += run_end - run_start;
        }
        run_start = start;
        run_end = end;
        open = true;
    }
    if (open) {
        union_ns += run_end - run_start;
    }
    return static_cast<double>(parent.end_ns - parent.start_ns - union_ns) * 1e-9;
}

Tracer::Scope::Scope(Tracer* tracer, const char* name)
    : Scope(tracer, name, t_current_span)
{
}

Tracer::Scope::Scope(Tracer* tracer, const char* name, uint32_t parent)
    : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr)
{
    if (tracer_ == nullptr) {
        return;
    }
    span_.id = tracer_->NextId();
    span_.parent = parent;
    span_.trace_id = tracer_->trace_id_.load();
    span_.thread = tracer_->ThreadIndex();
    span_.name = name;
    saved_current_ = t_current_span;
    t_current_span = span_.id;
    span_.start_ns = NowNs();
}

Tracer::Scope::~Scope()
{
    if (tracer_ == nullptr) {
        return;
    }
    span_.end_ns = NowNs();
    t_current_span = saved_current_;
    tracer_->Record(span_);
}

uint32_t
Tracer::NextId()
{
    const std::lock_guard<std::mutex> lock(mu_);
    return ++next_id_;
}

uint32_t
Tracer::ThreadIndex()
{
    const uint64_t key = std::hash<std::thread::id>{}(std::this_thread::get_id());
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = std::find(thread_keys_.begin(), thread_keys_.end(), key);
    if (it != thread_keys_.end()) {
        return static_cast<uint32_t>(it - thread_keys_.begin());
    }
    thread_keys_.push_back(key);
    return static_cast<uint32_t>(thread_keys_.size() - 1);
}

void
Tracer::Record(const Span& span)
{
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
}

std::vector<Span>
Tracer::spans() const
{
    const std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

std::vector<Span>
Tracer::Find(const char* name, uint32_t trace_id) const
{
    const std::lock_guard<std::mutex> lock(mu_);
    std::vector<Span> found;
    for (const Span& span : spans_) {
        if (span.trace_id == trace_id && std::string_view(span.name) == name) {
            found.push_back(span);
        }
    }
    return found;
}

std::vector<Span>
Tracer::ChildrenOf(uint32_t id) const
{
    const std::lock_guard<std::mutex> lock(mu_);
    std::vector<Span> found;
    for (const Span& span : spans_) {
        if (span.parent == id) {
            found.push_back(span);
        }
    }
    return found;
}

}  // namespace perfbench
