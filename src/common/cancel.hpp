#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>

#include "common/error.hpp"

namespace phoenix {

/// Cooperative cancellation + deadline propagation for long-running compiles.
///
/// A `CancelSource` owns the request's cancellation state; `CancelToken` is a
/// cheap copyable view handed down through `PhoenixOptions` into the stage
/// loops (simplify greedy descent, Tetris ordering, SABRE routing, peephole
/// worklist). The loops call `poll()` with a local tick counter: a
/// default-constructed (empty) token costs a single pointer test per call,
/// an armed token costs a counter increment on most calls and consults the
/// atomic flag + clock only once per `kPollStride` iterations — so a
/// cancelled or expired compile aborts within a bounded number of loop
/// steps (milliseconds in practice) while the uninstrumented hot path stays
/// within noise of the pre-token baseline (asserted by the benchmark-smoke
/// CI job).
///
/// Tripping a check throws a structured `phoenix::Error` whose `kind()` is
/// `Cancelled` or `DeadlineExceeded` and whose stage is the loop that
/// noticed — a compile never returns a partially-optimized circuit.
///
/// Deadlines are `steady_clock` absolute times stored as an atomic
/// nanosecond count, so the serving layer can *relax* a shared flight's
/// deadline as later joiners with looser deadlines arrive (the compile must
/// outlive the most patient waiter). Tokens may also chain to a parent
/// token: a derived token trips when it or any ancestor trips, with the
/// effective deadline the tightest along the chain.
class CancelToken {
 public:
  using Clock = std::chrono::steady_clock;

  /// The flag + clock are consulted once per this many poll() calls. Power
  /// of two so the amortization is a mask, not a division.
  static constexpr std::uint32_t kPollStride = 256;

  /// Empty token: never cancels, polls are one pointer test.
  CancelToken() = default;

  bool valid() const { return state_ != nullptr; }

  /// True when this token (or an ancestor) was cancelled. No clock read.
  bool cancel_requested() const;

  /// True when the effective deadline (tightest along the parent chain) has
  /// passed. One clock read; false for tokens without a deadline.
  bool deadline_expired() const;

  bool has_deadline() const;

  /// Milliseconds until the effective deadline: +infinity when none,
  /// negative when already expired.
  double remaining_ms() const;

  /// Throw Error(Cancelled|DeadlineExceeded, stage) if tripped.
  void check(Stage stage) const {
    if (state_ == nullptr) return;
    check_slow(stage);
  }

  /// Amortized check for hot loops. `tick` is a caller-local counter (one
  /// per loop); the expensive check runs when it wraps the stride.
  void poll(std::uint32_t& tick, Stage stage) const {
    if (state_ == nullptr) return;
    if ((++tick & (kPollStride - 1)) != 0) return;
    check_slow(stage);
  }

  /// Standalone deadline-only token expiring `ms` from now, converted by
  /// deadline_after_ms: ms <= 0 makes a token that is already expired
  /// (useful for shedding ahead of work), ms >= kMaxDeadlineMs a token with
  /// no deadline, and after_ms(NaN) an expired token, as after_ms(-inf).
  static CancelToken after_ms(double ms);

 private:
  friend class CancelSource;
  struct State;
  void check_slow(Stage stage) const;
  std::shared_ptr<const State> state_;
};

/// Relative deadlines at or above this many milliseconds (about 31.7
/// years, +inf included) mean "no deadline".
inline constexpr double kMaxDeadlineMs = 1e12;

/// The absolute deadline `ms` milliseconds from now: the one saturating
/// conversion behind every relative deadline (cancel tokens, the compile
/// service's waits), so no double reaches an integer clock unchecked.
///  * ms >= kMaxDeadlineMs: no deadline, time_point::max();
///  * ms <= 0: already expired; below -kMaxDeadlineMs (-inf included) it
///    saturates there;
///  * NaN: treated as -inf, already expired. Callers that take a deadline
///    from outside reject NaN before it gets here (compile_request_from_bytes
///    and CompileService::submit/compile do).
CancelToken::Clock::time_point deadline_after_ms(double ms);

/// Owning side of a cancellation scope: create one per request (or per
/// shared in-flight compile), hand `token()` down, call `request_cancel()`
/// from any thread to abort.
class CancelSource {
 public:
  using Clock = CancelToken::Clock;

  /// No deadline, optionally chained to a parent token (the source trips
  /// when the parent does).
  explicit CancelSource(CancelToken parent = {});
  /// Deadline `ms` from now, as deadline_after_ms converts it.
  explicit CancelSource(double deadline_ms, CancelToken parent = {});

  void request_cancel();
  bool cancel_requested() const;

  /// Replace the deadline (time_point::max() clears it).
  void set_deadline(Clock::time_point tp);
  /// Relax the deadline to at least `tp` (monotonic max; time_point::max()
  /// removes it). Used by the single-flight serving layer: a shared compile
  /// must run until its most patient joiner's deadline.
  void extend_deadline(Clock::time_point tp);

  CancelToken token() const;

 private:
  std::shared_ptr<CancelToken::State> state_;
};

}  // namespace phoenix
