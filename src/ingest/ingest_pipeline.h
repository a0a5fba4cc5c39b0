#ifndef AMICI_INGEST_INGEST_PIPELINE_H_
#define AMICI_INGEST_INGEST_PIPELINE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "ingest/ingest_queue.h"
#include "ingest/ingest_sink.h"

namespace amici {

/// Drain-side work counters of one ApplyIngestOps call (accumulated into
/// the pipeline's totals by the writer thread).
struct ApplyStats {
  uint64_t apply_calls = 0;
  uint64_t items_applied = 0;
  uint64_t edits_applied = 0;
  uint64_t errors = 0;
};

/// Applies one drained op sequence to `sink`, in admission order,
/// resolving every ticket. Adjacent item batches are coalesced into ONE
/// AddItems call — one writer-lock acquisition and one snapshot publish
/// for the whole run — falling back to per-batch application when the
/// combined call is rejected, so validation errors land on the ticket
/// that caused them (batch atomicity is per enqueued batch, never per
/// drain cycle). Exposed as a free function so tests can drive the drain
/// logic deterministically, without the writer thread.
void ApplyIngestOps(IngestSink* sink, std::vector<IngestOp> ops,
                    ApplyStats* stats);

/// The ingest subsystem's front half: a bounded MPSC queue of item
/// batches and friendship edits, drained by one dedicated writer thread
/// into an IngestSink (SearchService, or a test fake).
///
/// Producers get an IngestTicket per enqueue and never touch the sink's
/// writer lock; the writer thread coalesces whatever queued since its
/// last wake-up into the fewest possible sink calls. Flush() is the
/// read-your-writes barrier: it returns once everything enqueued before
/// the call has been applied (and is therefore query-visible).
class IngestPipeline {
 public:
  struct Options {
    IngestQueue::Options queue;
  };

  /// Starts the writer thread immediately. `sink` must outlive this
  /// object (or outlive Stop(), which joins the thread).
  IngestPipeline(IngestSink* sink, Options options);

  /// Stops and joins (drains the queue first).
  ~IngestPipeline();

  IngestPipeline(const IngestPipeline&) = delete;
  IngestPipeline& operator=(const IngestPipeline&) = delete;

  /// Enqueues a batch; the ticket completes when the writer applied it.
  /// Subject to the queue's backpressure mode.
  Result<IngestTicket> EnqueueItems(std::vector<Item> items);
  Result<IngestTicket> EnqueueAddFriendship(UserId u, UserId v);
  Result<IngestTicket> EnqueueRemoveFriendship(UserId u, UserId v);

  /// Barrier: returns once every operation enqueued BEFORE this call has
  /// been applied to the sink. Concurrent enqueues may or may not be
  /// covered. Always returns Ok (per-op failures are reported on their
  /// tickets, not here).
  Status Flush();

  /// Closes the queue (new producers are rejected), drains what is
  /// already queued, and joins the writer thread. Idempotent.
  void Stop();

  /// Merged producer + drain side counter snapshot.
  IngestCounters counters() const;

 private:
  void WriterLoop();

  IngestSink* const sink_;
  IngestQueue queue_;

  std::mutex applied_mutex_;
  std::condition_variable applied_cv_;
  uint64_t applied_sequence_ = 0;  // guarded by applied_mutex_

  std::atomic<uint64_t> drain_cycles_{0};
  std::atomic<uint64_t> apply_calls_{0};
  std::atomic<uint64_t> items_applied_{0};
  std::atomic<uint64_t> edits_applied_{0};
  std::atomic<uint64_t> apply_errors_{0};
  /// Drain-side ingest rate (items/s, EWMA with ~1s time constant).
  /// Written only by the writer thread after each drain cycle; read by
  /// counters() from any thread, which applies the decay for the time
  /// elapsed SINCE the last drain — so a stalled pipeline reads low
  /// instead of freezing at its last busy-period value.
  std::atomic<double> items_per_sec_ewma_{0.0};
  /// steady_clock nanoseconds of the previous EWMA update (atomic: the
  /// read-side decay in counters() needs it too).
  std::atomic<int64_t> last_rate_update_ns_{
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count()};

  std::mutex stop_mutex_;  // serializes Stop() callers
  bool stopped_ = false;   // guarded by stop_mutex_
  std::thread writer_;
};

}  // namespace amici

#endif  // AMICI_INGEST_INGEST_PIPELINE_H_
