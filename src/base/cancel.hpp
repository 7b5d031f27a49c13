// Cooperative cancellation: a Deadline (absolute steady-clock budget), a
// CancelToken handed down from the service layer into the hot loops, and a
// CancelSource that owns the shared cancel flag.
//
// Design rules:
//   - A default-constructed CancelToken is inert: cancellable() is false
//     and poll() compiles down to two cheap loads, so every existing call
//     site can take `const CancelToken& = {}` without a behavior change.
//   - Cancellation is COOPERATIVE and throw-based: hot loops call
//     poll("context") at bounded intervals; an expired deadline or a
//     requested cancel raises CancelledError, which unwinds through the
//     normal Error-safety paths (TaskGroup first-error capture, phase
//     parking in svc::AnalysisService).
//   - CancelledError remembers whether the deadline or the flag fired, so
//     the service can map it to the `deadline_exceeded` vs `cancelled`
//     wire error codes.
//   - Determinism: cancellation may abort a run at any point, but it must
//     never change the ANSWER of a run that completes. Nothing here
//     mutates shared analysis state; see core/expand.cpp for the rethrow
//     discipline that keeps CancelledError from being swallowed into a
//     timing constraint.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <string>

#include "base/error.hpp"

namespace sitime::base {

/// Thrown by CancelToken::poll() when the token is cancelled. The
/// deadline_exceeded() flag distinguishes a blown time budget from an
/// explicit cancel request.
class CancelledError : public Error {
 public:
  CancelledError(const std::string& message, bool deadline_exceeded)
      : Error(message), deadline_exceeded_(deadline_exceeded) {}

  bool deadline_exceeded() const { return deadline_exceeded_; }

 private:
  bool deadline_exceeded_;
};

/// An absolute point on the steady clock by which work must finish.
/// Default-constructed (or from after_ms(<=0)) it is inactive and never
/// expires.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  Deadline() = default;

  static Deadline at(Clock::time_point when) {
    Deadline deadline;
    deadline.active_ = true;
    deadline.when_ = when;
    return deadline;
  }

  /// Budget relative to `from` (defaults to now). A non-positive budget
  /// yields an inactive deadline, matching the wire contract where
  /// deadline_ms is optional. A budget past the clock's range saturates
  /// at its maximum instead of overflowing into the past.
  static Deadline after_ms(long long budget_ms,
                           Clock::time_point from = Clock::now()) {
    if (budget_ms <= 0) return Deadline();
    const auto headroom = std::chrono::duration_cast<std::chrono::milliseconds>(
        Clock::time_point::max() - from);
    if (budget_ms >= headroom.count()) return at(Clock::time_point::max());
    return at(from + std::chrono::milliseconds(budget_ms));
  }

  bool active() const { return active_; }
  Clock::time_point when() const { return when_; }
  bool expired() const { return active_ && Clock::now() >= when_; }

 private:
  bool active_ = false;
  Clock::time_point when_{};
};

/// The handle hot loops poll. Copyable and cheap; carries an optional
/// shared cancel flag (from a CancelSource) and an optional Deadline.
class CancelToken {
 public:
  CancelToken() = default;
  explicit CancelToken(Deadline deadline) : deadline_(deadline) {}
  CancelToken(std::shared_ptr<const std::atomic<bool>> flag,
              Deadline deadline)
      : flag_(std::move(flag)), deadline_(deadline) {}

  /// False for the inert default token: callers may skip wiring work
  /// (e.g. the flow copies only a cancellable token into its Expand
  /// options).
  bool cancellable() const { return flag_ != nullptr || deadline_.active(); }

  bool cancel_requested() const {
    return flag_ && flag_->load(std::memory_order_relaxed);
  }
  bool deadline_expired() const { return deadline_.expired(); }
  bool cancelled() const { return cancel_requested() || deadline_expired(); }

  const Deadline& deadline() const { return deadline_; }

  /// Raises CancelledError("... during <during>") when cancelled;
  /// otherwise a cheap no-op. `during` names the phase or loop for the
  /// wire error message.
  void poll(const char* during) const {
    if (!cancellable()) return;
    if (cancel_requested()) throw_cancelled(during, false);
    if (deadline_expired()) throw_cancelled(during, true);
  }

  /// The time point a waiter should sleep until: the deadline when one is
  /// active, otherwise a short re-check interval (so flag-only tokens
  /// still wake to observe the flag).
  Deadline::Clock::time_point wait_point() const {
    if (deadline_.active()) return deadline_.when();
    return Deadline::Clock::now() + std::chrono::milliseconds(50);
  }

 private:
  [[noreturn]] static void throw_cancelled(const char* during,
                                           bool deadline_exceeded);

  std::shared_ptr<const std::atomic<bool>> flag_;
  Deadline deadline_;
};

/// Owns the cancel flag; hands out tokens that observe it.
class CancelSource {
 public:
  CancelSource() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void request_cancel() { flag_->store(true, std::memory_order_relaxed); }
  bool cancel_requested() const {
    return flag_->load(std::memory_order_relaxed);
  }

  CancelToken token(Deadline deadline = {}) const {
    return CancelToken(flag_, deadline);
  }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

}  // namespace sitime::base
