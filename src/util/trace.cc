#include "util/trace.h"

#include <utility>

namespace mad {

namespace {

// Ambient trace + current parent span for the calling thread. Plain
// thread_local pointers: reads on the no-trace fast path cost one load.
thread_local QueryTrace* g_current_trace = nullptr;
thread_local int32_t g_current_parent = TraceSpan::kNoParent;

uint64_t NsSince(std::chrono::steady_clock::time_point epoch) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

}  // namespace

QueryTrace::QueryTrace() : epoch_(std::chrono::steady_clock::now()) {}

int32_t QueryTrace::BeginSpan(const char* name, std::string note,
                              int32_t parent) {
  uint64_t start = NsSince(epoch_);
  MutexLock lock(mu_);
  TraceSpan span;
  span.id = static_cast<int32_t>(spans_.size());
  span.parent = parent;
  span.name = name;
  span.note = std::move(note);
  span.start_ns = start;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void QueryTrace::EndSpan(int32_t id, int64_t rows_in, int64_t rows_out) {
  uint64_t end = NsSince(epoch_);
  MutexLock lock(mu_);
  TraceSpan& span = spans_[static_cast<size_t>(id)];
  span.duration_ns = end - span.start_ns;
  span.rows_in = rows_in;
  span.rows_out = rows_out;
  if (end > total_duration_ns_) total_duration_ns_ = end;
}

TraceScope::TraceScope(QueryTrace* trace)
    : trace_(trace),
      previous_(g_current_trace),
      previous_parent_(g_current_parent),
      start_(std::chrono::steady_clock::now()) {
  g_current_trace = trace;
  g_current_parent = TraceSpan::kNoParent;
}

TraceScope::~TraceScope() {
  if (trace_ != nullptr) {
    trace_->SetTotalDuration(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count()));
  }
  g_current_trace = previous_;
  g_current_parent = previous_parent_;
}

QueryTrace* CurrentTrace() { return g_current_trace; }

void ScopedSpan::Begin(const char* name, std::string note) {
  id_ = trace_->BeginSpan(name, std::move(note), g_current_parent);
  saved_parent_ = g_current_parent;
  g_current_parent = id_;
}

ScopedSpan::~ScopedSpan() {
  if (trace_ == nullptr) return;
  trace_->EndSpan(id_, rows_in_, rows_out_);
  g_current_parent = saved_parent_;
}

}  // namespace mad
