#ifndef AMICI_SERVICE_ADMISSION_CONTROLLER_H_
#define AMICI_SERVICE_ADMISSION_CONTROLLER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

namespace amici {

/// Admission control at the SearchService edge: decides, BEFORE any work
/// is dispatched, whether a request runs as asked (admit), runs cheaper
/// (degrade: capped k / tightened deadline — the service applies the
/// overrides), or does not run at all (shed). The decision is a pure
/// function of the controller state (in-flight count, token bucket) and
/// the request's cost estimate, so it is deterministic under an injected
/// clock — see tests/service/admission_control_test.cc.
///
/// The gates, evaluated in order (first hit wins):
///   1. in-flight >= max_inflight                        -> shed  "inflight"
///   2. rate bucket empty (max_admitted_per_sec)          -> shed  "rate"
///   3. shed_cost > 0 and cost > shed_cost                -> shed  "cost"
///   4. in-flight >= degrade_inflight (when enabled)      -> degrade "pressure"
///   5. degrade_cost > 0 and cost > degrade_cost          -> degrade "cost"
///   6. otherwise                                         -> admit
///
/// Shedding is HONEST by contract: the service returns a well-formed
/// response with `shed = true` and no items — never an unexplained error,
/// never a silent drop. Degraded responses carry `degraded = true`.
///
/// Thread-safe; one instance guards one service's query edge.
class AdmissionController {
 public:
  /// Monotonic seconds; injectable so shed/degrade decisions are
  /// reproducible under a fake clock in tests.
  using ClockFn = std::function<double()>;

  struct Options {
    /// Hard in-flight gate: requests arriving with this many already
    /// running are shed. The ticket is held for the request's whole
    /// lifetime (including fan-out), so this bounds queue depth too.
    size_t max_inflight = 256;
    /// Soft gate: at or above this many in-flight, requests run degraded
    /// instead of as-asked. 0 disables.
    size_t degrade_inflight = 0;
    /// Cost estimate (posting entries + un-indexed tail items) above
    /// which a request is degraded. 0 disables.
    uint64_t degrade_cost = 0;
    /// Cost estimate above which a request is shed outright. 0 disables.
    uint64_t shed_cost = 0;
    /// Token-bucket rate limit on admissions (admit + degrade) per
    /// second. 0 disables. Replenishes continuously; capacity = `burst`.
    double max_admitted_per_sec = 0.0;
    /// Bucket capacity in requests (>= 1).
    double burst = 16.0;
    /// Overrides the service applies to degraded requests: a cap on k
    /// (0 = keep), and a timeout the request is clamped to when it asked
    /// for none or a longer one (0 = keep). The strategy is left alone:
    /// every strategy is exact, so swapping the planned one cannot make
    /// a request cheaper.
    size_t degrade_k_cap = 0;
    double degrade_timeout_ms = 0.0;
    /// Test seam; null uses the process steady clock.
    ClockFn clock;
  };

  enum class Decision { kAdmit, kDegrade, kShed };

  /// One admission verdict. For kAdmit/kDegrade the caller owes exactly
  /// one Release() when the request finishes; kShed took no slot.
  struct Ticket {
    Decision decision = Decision::kAdmit;
    /// Which gate fired ("inflight", "rate", "cost", "pressure"); "" for
    /// plain admits. Static strings, safe to keep.
    const char* reason = "";
  };

  struct Counters {
    uint64_t admitted = 0;
    uint64_t degraded = 0;
    uint64_t shed = 0;
    uint64_t peak_inflight = 0;
  };

  explicit AdmissionController(Options options);

  /// Evaluates the gates for a request with `estimated_cost`; takes an
  /// in-flight slot unless the verdict is kShed.
  Ticket Admit(uint64_t estimated_cost);

  /// Returns the slot a kAdmit/kDegrade ticket holds.
  void Release();

  size_t inflight() const {
    return inflight_.load(std::memory_order_relaxed);
  }
  Counters counters() const;
  const Options& options() const { return options_; }

 private:
  Options options_;
  std::atomic<size_t> inflight_{0};
  std::atomic<uint64_t> admitted_{0};
  std::atomic<uint64_t> degraded_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> peak_inflight_{0};

  /// Token bucket state (only touched when max_admitted_per_sec > 0).
  mutable std::mutex bucket_mutex_;
  double tokens_ = 0.0;
  double last_refill_s_ = 0.0;
  bool bucket_primed_ = false;

  /// True when the bucket granted a token (or rate limiting is off).
  bool TakeRateToken();
};

}  // namespace amici

#endif  // AMICI_SERVICE_ADMISSION_CONTROLLER_H_
