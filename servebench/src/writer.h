#ifndef SERVEBENCH_WRITER_H_
#define SERVEBENCH_WRITER_H_

// Writes through the service's ingest pipeline, timed from enqueue until
// the ticket reports the write applied (and so visible to queries).

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "inputs.h"
#include "ingest/ingest_queue.h"
#include "service/search_service.h"

namespace servebench {

struct WriteRecords {
  std::vector<double> enqueue_us;       // per item batch: the Enqueue call
  std::vector<double> visible_ms;       // per item batch: enqueue -> applied
  std::vector<double> edit_visible_ms;  // per friendship edit
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// Enqueues one item batch every 1 / batches_per_s seconds and one edit
/// every 1 / edits_per_s seconds, on an absolute schedule; a second
/// thread waits on the tickets in order and records when each completed.
class OpenLoopWriter {
 public:
  OpenLoopWriter(amici::SearchService* service, ItemSource* items,
                 EditSource* edits, double batches_per_s, size_t batch_size,
                 double edits_per_s);
  ~OpenLoopWriter();
  OpenLoopWriter(const OpenLoopWriter&) = delete;
  OpenLoopWriter& operator=(const OpenLoopWriter&) = delete;

  /// Stops sending, waits for every outstanding ticket, joins both
  /// threads and returns what was recorded. Idempotent.
  WriteRecords Stop();

 private:
  struct Pending {
    amici::IngestTicket ticket;
    int64_t enqueued_ns = 0;
    bool edit = false;
  };

  void SendLoop();
  void WatchLoop();
  /// Enqueues one write and hands its ticket to the watcher.
  void Send(bool edit);

  amici::SearchService* const service_;
  ItemSource* const items_;
  EditSource* const edits_;
  const double batches_per_s_;
  const size_t batch_size_;
  const double edits_per_s_;

  std::mutex mutex_;  // guards pending_, sending_done_ and records_
  std::condition_variable ready_;
  std::deque<Pending> pending_;
  bool sending_done_ = false;
  bool stopped_ = false;
  WriteRecords records_;
  std::atomic<bool> stop_{false};

  std::thread watcher_;
  std::thread sender_;
};

/// Closed-loop write probe: `batches` item batches one after another, each
/// waited before the next, with one friendship edit after every
/// `edit_every` batches.
WriteRecords RunWriteProbe(amici::SearchService* service, ItemSource* items,
                           EditSource* edits, size_t batches,
                           size_t batch_size, size_t edit_every);

}  // namespace servebench

#endif  // SERVEBENCH_WRITER_H_
