#include "common/cancel.hpp"

#include <algorithm>
#include <string>
#include <utility>

namespace phoenix {

namespace {

using Clock = CancelToken::Clock;

constexpr std::int64_t kNoDeadlineNs = std::numeric_limits<std::int64_t>::max();

std::int64_t to_ns(Clock::time_point tp) {
  if (tp == Clock::time_point::max()) return kNoDeadlineNs;
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             tp.time_since_epoch())
      .count();
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

Clock::time_point deadline_after_ms(double ms) {
  if (ms >= kMaxDeadlineMs) return Clock::time_point::max();
  // NaN fails the comparison and saturates with -inf.
  const double clamped = ms > -kMaxDeadlineMs ? ms : -kMaxDeadlineMs;
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double, std::milli>(clamped));
}

struct CancelToken::State {
  std::atomic<bool> cancelled{false};
  std::atomic<std::int64_t> deadline_ns{kNoDeadlineNs};
  std::shared_ptr<const State> parent;
};

bool CancelToken::cancel_requested() const {
  for (const State* s = state_.get(); s != nullptr; s = s->parent.get())
    if (s->cancelled.load(std::memory_order_relaxed)) return true;
  return false;
}

bool CancelToken::has_deadline() const {
  for (const State* s = state_.get(); s != nullptr; s = s->parent.get())
    if (s->deadline_ns.load(std::memory_order_relaxed) != kNoDeadlineNs)
      return true;
  return false;
}

bool CancelToken::deadline_expired() const {
  if (state_ == nullptr) return false;
  std::int64_t tightest = kNoDeadlineNs;
  for (const State* s = state_.get(); s != nullptr; s = s->parent.get())
    tightest = std::min(tightest,
                        s->deadline_ns.load(std::memory_order_relaxed));
  return tightest != kNoDeadlineNs && now_ns() >= tightest;
}

double CancelToken::remaining_ms() const {
  std::int64_t tightest = kNoDeadlineNs;
  for (const State* s = state_.get(); s != nullptr; s = s->parent.get())
    tightest = std::min(tightest,
                        s->deadline_ns.load(std::memory_order_relaxed));
  if (tightest == kNoDeadlineNs)
    return std::numeric_limits<double>::infinity();
  return static_cast<double>(tightest - now_ns()) * 1e-6;
}

void CancelToken::check_slow(Stage stage) const {
  if (cancel_requested())
    throw Error(Error::Kind::Cancelled, stage, "compile cancelled");
  std::int64_t tightest = kNoDeadlineNs;
  for (const State* s = state_.get(); s != nullptr; s = s->parent.get())
    tightest = std::min(tightest,
                        s->deadline_ns.load(std::memory_order_relaxed));
  if (tightest == kNoDeadlineNs) return;
  const std::int64_t over = now_ns() - tightest;
  if (over >= 0)
    throw Error(Error::Kind::DeadlineExceeded, stage,
                "compile deadline exceeded by " +
                    std::to_string(static_cast<double>(over) * 1e-6) + " ms");
}

CancelToken CancelToken::after_ms(double ms) {
  CancelSource src(ms);
  return src.token();
}

CancelSource::CancelSource(CancelToken parent) {
  state_ = std::make_shared<CancelToken::State>();
  state_->parent = std::move(parent.state_);
}

CancelSource::CancelSource(double deadline_ms, CancelToken parent)
    : CancelSource(std::move(parent)) {
  state_->deadline_ns.store(to_ns(deadline_after_ms(deadline_ms)),
                            std::memory_order_relaxed);
}

void CancelSource::request_cancel() {
  state_->cancelled.store(true, std::memory_order_relaxed);
}

bool CancelSource::cancel_requested() const {
  return state_->cancelled.load(std::memory_order_relaxed);
}

void CancelSource::set_deadline(Clock::time_point tp) {
  state_->deadline_ns.store(to_ns(tp), std::memory_order_relaxed);
}

void CancelSource::extend_deadline(Clock::time_point tp) {
  const std::int64_t want = to_ns(tp);
  std::int64_t cur = state_->deadline_ns.load(std::memory_order_relaxed);
  while (cur < want && !state_->deadline_ns.compare_exchange_weak(
                           cur, want, std::memory_order_relaxed)) {
  }
}

CancelToken CancelSource::token() const {
  CancelToken t;
  t.state_ = state_;
  return t;
}

}  // namespace phoenix
