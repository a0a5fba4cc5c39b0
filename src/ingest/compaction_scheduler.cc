#include "ingest/compaction_scheduler.h"

#include <chrono>
#include <utility>

#include "util/logging.h"

namespace amici {

CompactionScheduler::CompactionScheduler(CompactionTarget* target,
                                         Options options)
    : target_(target), options_(std::move(options)) {
  AMICI_CHECK(target_ != nullptr);
  AMICI_CHECK(options_.poll_interval_ms > 0.0);
  poller_ = std::thread(&CompactionScheduler::SchedulerLoop, this);
}

CompactionScheduler::~CompactionScheduler() { Stop(); }

size_t CompactionScheduler::PollOnce() {
  size_t compacted = 0;
  const size_t shards = target_->num_shards();
  for (size_t s = 0; s < shards; ++s) {
    if (!options_.policy.ShouldCompact(target_->ShardSignals(s))) continue;
    CompactionOutcome outcome;
    const Status status = target_->CompactShard(s, &outcome);
    if (status.ok()) {
      ++compacted;
      compactions_.fetch_add(1, std::memory_order_relaxed);
      // Per-mode counts only for compactions that actually published —
      // a Compact abandoned to a concurrent winner ran neither path.
      if (outcome.published) {
        (outcome.merged ? merge_compactions_ : rebuild_compactions_)
            .fetch_add(1, std::memory_order_relaxed);
      }
    } else {
      errors_.fetch_add(1, std::memory_order_relaxed);
      AMICI_LOG(kWarning) << "background compaction of shard " << s
                          << " failed: " << status.ToString();
    }
  }
  return compacted;
}

void CompactionScheduler::Stop() {
  std::lock_guard<std::mutex> stop_lock(stop_mutex_);
  if (stopped_) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  stop_cv_.notify_all();
  poller_.join();
  stopped_ = true;
}

void CompactionScheduler::SchedulerLoop() {
  const auto interval = std::chrono::duration_cast<
      std::chrono::steady_clock::duration>(
      std::chrono::duration<double, std::milli>(options_.poll_interval_ms));
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stopping_) {
    if (stop_cv_.wait_for(lock, interval, [&] { return stopping_; })) break;
    lock.unlock();
    PollOnce();
    lock.lock();
  }
}

}  // namespace amici
