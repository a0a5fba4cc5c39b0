#ifndef AMICI_PROXIMITY_WARM_OVER_WORKER_H_
#define AMICI_PROXIMITY_WARM_OVER_WORKER_H_

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "proximity/proximity_provider.h"
#include "util/ids.h"

namespace amici {

/// The background warm-over thread the ProximityProvider runs after a
/// friendship edit publishes a new generation: recompute the hottest
/// users against the new graph so the cache does not restart cold on
/// every edge churn.
///
/// Newer tasks supersede queued ones (only the newest generation is worth
/// warming), so the backlog is at most one task, and a round is abandoned
/// mid-way when a newer one arrives.
class WarmOverWorker {
 public:
  /// Called once per (view, user) warm candidate, on the worker thread;
  /// typically wraps SingleFlightProximity::Get and counts computed
  /// outcomes. Must be safe to call until the destructor returns.
  using WarmFn =
      std::function<void(const ProximityProvider::GraphView&, UserId)>;

  /// Starts the worker thread.
  explicit WarmOverWorker(WarmFn warm);

  /// Stops and joins the worker thread.
  ~WarmOverWorker();

  WarmOverWorker(const WarmOverWorker&) = delete;
  WarmOverWorker& operator=(const WarmOverWorker&) = delete;

  /// Queues one warm-over round: recompute `users` against `view`.
  /// Supersedes any not-yet-finished round.
  void Submit(ProximityProvider::GraphView view, std::vector<UserId> users);

  /// Blocks until every round queued so far has been applied or
  /// superseded. Tests use it to make warm-over observable
  /// deterministically.
  void WaitForWarmup();

 private:
  /// One queued warm-over round.
  struct Task {
    ProximityProvider::GraphView view;
    std::vector<UserId> users;
  };

  void Loop();

  WarmFn warm_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;                 // guarded by mutex_
  bool busy_ = false;                 // guarded by mutex_
  std::unique_ptr<Task> pending_;     // guarded by mutex_
  std::thread thread_;                // joined in the destructor
};

}  // namespace amici

#endif  // AMICI_PROXIMITY_WARM_OVER_WORKER_H_
