#ifndef AMICI_INGEST_COMPACTION_SCHEDULER_H_
#define AMICI_INGEST_COMPACTION_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "core/engine_stats.h"
#include "ingest/compaction_policy.h"
#include "util/status.h"

namespace amici {

/// What the scheduler compacts: a set of independently-compactable shards
/// (1 for LocalSearchService). SearchService implements it; tests
/// substitute fakes.
/// ShardSignals/CompactShard must be safe to call from the scheduler
/// thread concurrently with queries and ingest — which the engines'
/// snapshot protocol already guarantees.
class CompactionTarget {
 public:
  virtual ~CompactionTarget() = default;

  /// Number of partitions behind the surface (1 for local).
  virtual size_t num_shards() const = 0;
  /// Trigger inputs of shard `shard` (< num_shards()).
  virtual CompactionSignals ShardSignals(size_t shard) const = 0;
  /// Folds ONE shard's tail into fresh indexes, leaving the other shards
  /// untouched — per-shard compaction, not fleet-wide. `outcome`, when
  /// non-null, receives which path ran (incremental merge vs full
  /// rebuild) and how much it touched; the scheduler records per-mode
  /// counts from it.
  virtual Status CompactShard(size_t shard,
                              CompactionOutcome* outcome = nullptr) = 0;
};

/// Background driver that turns manual Compact() calls into policy: a
/// thread polls every shard's CompactionSignals on a fixed cadence and
/// compacts exactly the shards whose policy fires. Because the engines
/// build indexes off the writer lock, a triggered compaction runs
/// concurrently with queries AND ingest; the scheduler merely decides
/// WHEN and WHERE.
class CompactionScheduler {
 public:
  struct Options {
    /// Consulted for every shard.
    AdaptiveCompactionPolicy policy;
    /// Cadence of the signal poll, milliseconds.
    double poll_interval_ms = 20.0;
  };

  /// Starts the scheduler thread immediately. `target` must outlive this
  /// object (or outlive Stop(), which joins the thread).
  CompactionScheduler(CompactionTarget* target, Options options);

  /// Stops and joins.
  ~CompactionScheduler();

  CompactionScheduler(const CompactionScheduler&) = delete;
  CompactionScheduler& operator=(const CompactionScheduler&) = delete;

  /// Evaluates the policy on every shard once, compacting where it fires;
  /// returns how many shards were compacted. The scheduler thread calls
  /// this on its cadence; tests call it directly for determinism.
  size_t PollOnce();

  /// Stops the polling thread. Idempotent.
  void Stop();

  /// Compactions triggered since construction (sum over shards).
  uint64_t compactions_triggered() const {
    return compactions_.load(std::memory_order_relaxed);
  }
  /// Of those, how many took the incremental merge path vs a full
  /// rebuild — which compaction mode the policy's firings actually hit.
  /// The two may sum below compactions_triggered(): a Compact abandoned
  /// to a concurrent winner counts as triggered but ran neither path.
  uint64_t merge_compactions_triggered() const {
    return merge_compactions_.load(std::memory_order_relaxed);
  }
  uint64_t rebuild_compactions_triggered() const {
    return rebuild_compactions_.load(std::memory_order_relaxed);
  }
  /// CompactShard calls that returned an error.
  uint64_t compaction_errors() const {
    return errors_.load(std::memory_order_relaxed);
  }

 private:
  void SchedulerLoop();

  CompactionTarget* const target_;
  Options options_;

  std::atomic<uint64_t> compactions_{0};
  std::atomic<uint64_t> merge_compactions_{0};
  std::atomic<uint64_t> rebuild_compactions_{0};
  std::atomic<uint64_t> errors_{0};

  std::mutex mutex_;
  std::condition_variable stop_cv_;
  bool stopping_ = false;  // guarded by mutex_

  std::mutex stop_mutex_;  // serializes Stop() callers across the join
  bool stopped_ = false;   // guarded by stop_mutex_
  std::thread poller_;
};

}  // namespace amici

#endif  // AMICI_INGEST_COMPACTION_SCHEDULER_H_
