#ifndef MAD_UTIL_TRACE_H_
#define MAD_UTIL_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/sync.h"

namespace mad {

/// Per-query operator tracing: while a QueryTrace is installed (TraceScope),
/// instrumented code opens ScopedSpans that record a tree of timed operator
/// spans — derivation, algebra operators, molecule ops, recursive expansion
/// rounds, WAL appends/fsyncs — each with wall time and cardinalities in/out.
///
/// The ambient trace is thread-local, so deep call sites (the WAL under a
/// session statement, an algebra operator under a molecule op) need no API
/// changes to participate: they see the installing thread's trace, and a
/// statement runs on one thread, so every span is recorded by it. Per-root
/// derivation work deliberately stays span-free (aggregated into
/// DerivationStats and the metrics registry instead) to keep hot-loop
/// overhead near zero. When no trace is installed, ScopedSpan construction
/// is a null-pointer check: a note the caller computes is passed as a
/// callable, which then never runs.

/// One completed operator span. `parent` indexes into QueryTrace::spans()
/// (kNoParent for roots); children always appear after their parent.
struct TraceSpan {
  static constexpr int32_t kNoParent = -1;

  int32_t id = 0;
  int32_t parent = kNoParent;
  /// Operator name, e.g. "select", "derive", "sigma", "pi", "wal.sync".
  std::string name;
  /// Free-form detail: molecule type, predicate, link type, ...
  std::string note;
  /// Nanoseconds from the trace epoch to span start.
  uint64_t start_ns = 0;
  uint64_t duration_ns = 0;
  /// Cardinality in/out; meaning is operator-specific (atoms, links, or
  /// molecules). -1 = not applicable.
  int64_t rows_in = -1;
  int64_t rows_out = -1;
};

/// A tree of spans recorded during one statement's execution.
///
/// Span completion appends under a mutex; this is off the per-row hot path
/// (spans wrap whole operators, not rows), so contention is negligible.
class QueryTrace {
 public:
  QueryTrace();

  /// Spans in start order; a span's parent always has a smaller id, and
  /// `id` equals the span's index. The returned reference is stable only
  /// once tracing has finished (no more spans being appended).
  const std::vector<TraceSpan>& spans() const MAD_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return spans_;
  }

  /// Total wall time from trace creation to FinishRoot (or the latest span
  /// end seen, when the root was never closed).
  uint64_t total_duration_ns() const MAD_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return total_duration_ns_;
  }

  std::chrono::steady_clock::time_point epoch() const { return epoch_; }

  // -- internal API used by TraceScope / ScopedSpan --------------------

  int32_t BeginSpan(const char* name, std::string note, int32_t parent)
      MAD_EXCLUDES(mu_);
  void EndSpan(int32_t id, int64_t rows_in, int64_t rows_out)
      MAD_EXCLUDES(mu_);
  void SetTotalDuration(uint64_t ns) MAD_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    total_duration_ns_ = ns;
  }

 private:
  /// Guards span recording. Leaf lock, off the per-row hot path (spans wrap
  /// whole operators); nothing else is acquired while it is held.
  mutable Mutex mu_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<TraceSpan> spans_ MAD_GUARDED_BY(mu_);
  uint64_t total_duration_ns_ MAD_GUARDED_BY(mu_) = 0;
};

/// Installs `trace` as the calling thread's ambient trace for the scope's
/// lifetime (restoring any previous one on exit) and records the overall
/// wall time into QueryTrace::total_duration_ns.
class TraceScope {
 public:
  explicit TraceScope(QueryTrace* trace);
  ~TraceScope();

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  QueryTrace* trace_;
  QueryTrace* previous_;
  int32_t previous_parent_;
  std::chrono::steady_clock::time_point start_;
};

/// The calling thread's ambient trace, or nullptr when tracing is off.
QueryTrace* CurrentTrace();

/// RAII span under the ambient trace. A no-op (one branch) when no trace is
/// installed. Nested ScopedSpans on the same thread form the tree.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : ScopedSpan(name, "") {}
  /// `note` is either text (a literal or a string the caller already holds,
  /// taken by reference) or a callable returning std::string. Either is
  /// read only when a trace is installed, so a note that has to be
  /// formatted costs nothing untraced when it is passed as a callable.
  template <typename Note>
  ScopedSpan(const char* name, Note&& note) : trace_(CurrentTrace()) {
    if (trace_ == nullptr) return;
    if constexpr (std::is_invocable_r_v<std::string, Note&>) {
      Begin(name, note());
    } else {
      Begin(name, std::string(std::forward<Note>(note)));
    }
  }
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Cardinality annotations; ignored when tracing is off.
  void set_rows_in(int64_t n) { rows_in_ = n; }
  void set_rows_out(int64_t n) { rows_out_ = n; }

  bool active() const { return trace_ != nullptr; }

 private:
  void Begin(const char* name, std::string note);

  QueryTrace* trace_;
  int32_t id_ = -1;
  int32_t saved_parent_ = TraceSpan::kNoParent;
  int64_t rows_in_ = -1;
  int64_t rows_out_ = -1;
};

}  // namespace mad

#endif  // MAD_UTIL_TRACE_H_
