#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace phoenix {

/// Observability layer for the compile pipeline: RAII stage spans, named
/// monotonic counters, and latency histograms, collected per compile and
/// surfaced as a `CompileStats` on `CompileResult`.
///
/// Design constraints, in order:
///
/// * Near-zero disabled overhead. No `Trace` installed on the current thread
///   means every probe is an inlined thread-local load plus one branch — no
///   clocks, no locks, no allocation (tests/test_trace.cpp asserts the
///   zero-allocation property). Defining `PHOENIX_DISABLE_TRACE` makes
///   `Trace::current()` a constant `nullptr` so the compiler strips every
///   probe entirely (the bench-smoke CI job bounds the residual runtime-
///   guarded overhead at < 2% against such a build).
/// * Thread safety. Probes may fire concurrently from the thread-pool workers
///   of the parallel group-simplify stage; each recorded span carries a small
///   per-trace track id so exports keep per-thread attribution. Counters are
///   plain sums and therefore deterministic for any `num_threads`.
/// * No globals. A `Trace` is a stack object owned by one compile; it is
///   installed on participating threads with `Trace::Scope` (the worker
///   lambda installs it per task), so concurrent compiles never share state.

// --- result-side data model ------------------------------------------------

/// One closed stage span. `start_ms` is relative to the trace epoch (the
/// Trace object's construction); `depth` is the nesting level on its thread;
/// `thread` is a dense per-trace track id (0 = first thread that recorded).
struct StageStats {
  std::string name;
  double start_ms = 0.0;
  double millis = 0.0;
  std::size_t thread = 0;
  std::size_t depth = 0;
};

struct CounterStats {
  std::string name;
  std::uint64_t value = 0;
};

/// Fixed log-scale latency histogram (milliseconds). `buckets[i]` counts
/// observations <= kBucketBounds[i]; the last bucket is unbounded.
struct HistogramStats {
  static constexpr std::array<double, 6> kBucketBounds = {0.01, 0.1,  1.0,
                                                          10.0, 100.0, 1000.0};
  std::string name;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::array<std::uint64_t, kBucketBounds.size() + 1> buckets{};

  void observe(double value);
};

/// Everything one traced compile recorded. Spans appear in completion order
/// (thread-interleaving dependent); counters and histograms are sorted by
/// name, and counter values are independent of thread count and scheduling.
struct CompileStats {
  bool enabled = false;
  std::vector<StageStats> spans;
  std::vector<CounterStats> counters;
  std::vector<HistogramStats> histograms;

  /// Counter value by exact name; 0 when never incremented.
  std::uint64_t counter(const std::string& name) const;
  /// First top-level (depth 0) span with this name, or nullptr.
  const StageStats* span(const std::string& name) const;
};

// --- collection ------------------------------------------------------------

class Trace {
 public:
  Trace();
  ~Trace();
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  /// The trace installed on the calling thread, or nullptr (tracing off).
  static Trace* current() noexcept {
#ifdef PHOENIX_DISABLE_TRACE
    return nullptr;
#else
    return tl_current_;
#endif
  }

  /// RAII installation of a trace (or nullptr) on the calling thread; restores
  /// the previous installation on destruction. Worker threads servicing a
  /// traced compile install the owning compile's trace per task.
  class Scope {
   public:
    explicit Scope(Trace* t) noexcept;
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
#ifndef PHOENIX_DISABLE_TRACE
    Trace* prev_;
#endif
  };

  void add_count(const char* name, std::uint64_t delta);
  void observe_ms(const char* name, double millis);

  double millis_since_epoch() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// Record a closed span directly (TraceSpan is the usual front end).
  void record_span(const char* name, double start_ms, double millis,
                   std::size_t depth);

  /// Snapshot of everything recorded so far (counters/histograms sorted).
  CompileStats snapshot() const;

 private:
#ifndef PHOENIX_DISABLE_TRACE
  // Defined inline, with its initializer, so every translation unit sees a
  // constant-initialized thread_local: an out-of-line definition makes
  // callers in other units go through a TLS wrapper that UBSan flags as a
  // null load at -O2.
  static inline thread_local Trace* tl_current_ = nullptr;
#endif

  /// Dense per-trace track id for the calling thread. Caller holds mu_.
  std::size_t track_id_locked();

  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<StageStats> spans_;
  std::unordered_map<std::string, std::uint64_t> counters_;
  std::unordered_map<std::string, HistogramStats> histograms_;
  std::unordered_map<std::thread::id, std::size_t> tracks_;
};

/// RAII stage span: records [construction, destruction) on the current
/// thread's trace, and also observes its duration into `histogram` when one
/// is named. A disabled trace makes both ends branch-only no-ops.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name,
                     const char* histogram = nullptr) noexcept
      : trace_(Trace::current()), name_(name), histogram_(histogram) {
    if (trace_ == nullptr) return;
    start_ms_ = trace_->millis_since_epoch();
    depth_ = tl_depth_++;
  }
  ~TraceSpan() {
    if (trace_ == nullptr) return;
    --tl_depth_;
    const double millis = trace_->millis_since_epoch() - start_ms_;
    trace_->record_span(name_, start_ms_, millis, depth_);
    if (histogram_ != nullptr) trace_->observe_ms(histogram_, millis);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  static inline thread_local std::size_t tl_depth_ = 0;
  Trace* trace_;
  const char* name_;
  const char* histogram_;
  double start_ms_ = 0.0;
  std::size_t depth_ = 0;
};

/// Bump a named monotonic counter on the current thread's trace, if any.
inline void trace_count(const char* name, std::uint64_t delta) {
  if (delta == 0) return;
  if (Trace* t = Trace::current()) t->add_count(name, delta);
}

/// Record one latency observation into a named histogram, if tracing.
inline void trace_observe_ms(const char* name, double millis) {
  if (Trace* t = Trace::current()) t->observe_ms(name, millis);
}

// --- exporters -------------------------------------------------------------

namespace TraceExport {

/// Human-readable report: a stage table (indented by nesting, with thread
/// tracks), the counters, and the histograms.
std::string table(const CompileStats& stats);

/// chrome://tracing / Perfetto "trace event" JSON: spans as complete ("X")
/// events with per-thread tids, counters as counter ("C") events. Histograms
/// are table-only (the chrome format has no histogram primitive).
std::string chrome_json(const CompileStats& stats);

/// Parse a chrome-trace JSON document produced by `chrome_json` back into a
/// CompileStats (spans and counters; histograms do not round-trip). Throws
/// phoenix::Error (Stage::Parse) on malformed input.
CompileStats parse_chrome_json(const std::string& json);

}  // namespace TraceExport

}  // namespace phoenix
