#ifndef AMICI_UTIL_CANCELLATION_H_
#define AMICI_UTIL_CANCELLATION_H_

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>

namespace amici {

/// Cooperative cancellation for one request: a deadline, an external
/// cancel flag, or both. Copies share the same state (shared_ptr), so the
/// fan-out side can hand a token to N shard queries and cancel all of
/// them with one RequestCancel() — or simply let the embedded deadline
/// expire inside each of them.
///
/// A default-constructed token never cancels and costs nothing to check
/// (null state). Checking an armed token reads one relaxed atomic and —
/// only when a deadline is set — the steady clock; the search algorithms
/// amortize even that through CancellationTicker below, checking once per
/// posting-list block / candidate batch.
///
/// Cancellation is STRICTLY an early-exit: until the first positive
/// Expired() observation a cancelled query does exactly the work an
/// uncancelled twin does, and a token that never fires changes no
/// observable behavior at all (bit-identical results — see
/// tests/service/deadline_test.cc's invariance case).
class CancellationToken {
 public:
  using Clock = std::chrono::steady_clock;

  /// Never cancels; Expired() is false forever.
  CancellationToken() = default;

  /// Expires when `deadline` passes (and on RequestCancel).
  static CancellationToken WithDeadline(Clock::time_point deadline) {
    CancellationToken token;
    token.state_ = std::make_shared<State>();
    token.state_->has_deadline = true;
    token.state_->deadline = deadline;
    return token;
  }

  /// Largest timeout FromTimeout takes (about 31 years): far enough
  /// below the steady clock's range that start + timeout cannot
  /// overflow.
  static constexpr double kMaxTimeoutMs = 1e12;

  /// True for the timeouts FromTimeout takes: <= 0 (no deadline) or
  /// finite up to kMaxTimeoutMs. NaN, +inf and larger values are out:
  /// converting them to a clock duration is undefined behaviour.
  static bool ValidTimeout(double timeout_ms) {
    return timeout_ms <= kMaxTimeoutMs;  // false for NaN
  }

  /// Expires `timeout_ms` after `start` — the SearchRequest::timeout_ms
  /// mapping. timeout_ms <= 0 returns the never-cancelling token.
  /// Requires ValidTimeout(timeout_ms).
  static CancellationToken FromTimeout(double timeout_ms,
                                       Clock::time_point start) {
    if (timeout_ms <= 0.0) return CancellationToken();
    return WithDeadline(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(timeout_ms)));
  }

  /// Cancels only on RequestCancel (no deadline).
  static CancellationToken Cancellable() {
    CancellationToken token;
    token.state_ = std::make_shared<State>();
    return token;
  }

  /// Cancels every holder of this token's state. Idempotent; safe from
  /// any thread.
  void RequestCancel() const {
    if (state_ != nullptr) {
      state_->cancelled.store(true, std::memory_order_relaxed);
    }
  }

  /// True once cancelled or past the deadline. Latches the deadline into
  /// the flag so later checks skip the clock read.
  bool Expired() const {
    if (state_ == nullptr) return false;
    if (state_->cancelled.load(std::memory_order_relaxed)) return true;
    if (state_->has_deadline && Clock::now() >= state_->deadline) {
      state_->cancelled.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  /// The deadline, or nullopt when this token has none.
  std::optional<Clock::time_point> deadline() const {
    if (state_ == nullptr || !state_->has_deadline) return std::nullopt;
    return state_->deadline;
  }

  /// True when this token can ever expire (armed). A never-cancelling
  /// token lets hot paths skip per-batch bookkeeping entirely.
  bool armed() const { return state_ != nullptr; }

 private:
  struct State {
    std::atomic<bool> cancelled{false};
    bool has_deadline = false;
    Clock::time_point deadline{};
  };

  std::shared_ptr<State> state_;  // null = never cancels
};

/// Amortized per-item cancellation probe for tight loops: Check() consults
/// the token only every `stride` calls (default: one posting-list block's
/// worth of entries), and always re-returns true once expired. With a
/// null/unarmed token every Check() is a single predictable branch.
class CancellationTicker {
 public:
  static constexpr uint32_t kDefaultStride = 128;  // PostingList block size

  explicit CancellationTicker(const CancellationToken* token,
                              uint32_t stride = kDefaultStride)
      : token_(token != nullptr && token->armed() ? token : nullptr),
        stride_(stride) {}

  /// True once the underlying token expired. Reads the clock at most once
  /// per `stride` calls.
  bool Check() {
    if (token_ == nullptr) return false;
    if (expired_) return true;
    if (++calls_ < stride_) return false;
    calls_ = 0;
    expired_ = token_->Expired();
    return expired_;
  }

  /// Unamortized probe for coarse loop boundaries (per block, per round).
  bool CheckNow() {
    if (token_ == nullptr) return false;
    if (!expired_) expired_ = token_->Expired();
    return expired_;
  }

 private:
  const CancellationToken* token_;
  uint32_t stride_;
  uint32_t calls_ = 0;
  bool expired_ = false;
};

}  // namespace amici

#endif  // AMICI_UTIL_CANCELLATION_H_
