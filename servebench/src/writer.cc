#include "writer.h"

#include <chrono>

#include "loadgen.h"

namespace servebench {

namespace {

amici::Result<amici::IngestTicket> EnqueueEdit(amici::SearchService* service,
                                               EditSource* edits) {
  const EditSource::Edit edit =
      edits->Next([&](amici::UserId u) { return service->FriendsOf(u); });
  return edit.add ? service->EnqueueAddFriendship(edit.u, edit.v)
                  : service->EnqueueRemoveFriendship(edit.u, edit.v);
}

}  // namespace

OpenLoopWriter::OpenLoopWriter(amici::SearchService* service,
                               ItemSource* items, EditSource* edits,
                               double batches_per_s, size_t batch_size,
                               double edits_per_s)
    : service_(service),
      items_(items),
      edits_(edits),
      batches_per_s_(batches_per_s),
      batch_size_(batch_size),
      edits_per_s_(edits_per_s),
      watcher_([this] { WatchLoop(); }),
      sender_([this] { SendLoop(); }) {}

OpenLoopWriter::~OpenLoopWriter() { Stop(); }

WriteRecords OpenLoopWriter::Stop() {
  if (stopped_) return {};
  stopped_ = true;
  stop_.store(true);
  sender_.join();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    sending_done_ = true;
  }
  ready_.notify_all();
  watcher_.join();
  return std::move(records_);
}

void OpenLoopWriter::Send(bool edit) {
  std::vector<amici::Item> batch;
  if (!edit) batch = items_->Batch(batch_size_);
  const int64_t start = NowNs();
  auto ticket = edit ? EnqueueEdit(service_, edits_)
                     : service_->EnqueueItems(std::move(batch));
  const int64_t enqueued = NowNs();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++records_.attempted;
    if (!edit) records_.enqueue_us.push_back((enqueued - start) / 1e3);
    if (ticket.ok()) {
      pending_.push_back(Pending{std::move(ticket).value(), start, edit});
    } else {
      ++records_.failed;
    }
  }
  ready_.notify_one();
}

void OpenLoopWriter::SendLoop() {
  TightenTimerSlack();
  const int64_t start = NowNs();
  const double batch_gap_ns = 1e9 / batches_per_s_;
  const double edit_gap_ns = 1e9 / edits_per_s_;
  uint64_t batches = 0;
  uint64_t edits = 0;
  while (true) {
    const auto batch_due = start + static_cast<int64_t>(batches * batch_gap_ns);
    // Edits fall half a gap into their period, away from batch instants.
    const auto edit_due =
        start + static_cast<int64_t>((edits + 0.5) * edit_gap_ns);
    const bool edit = edit_due < batch_due;
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(edit ? edit_due : batch_due)));
    if (stop_.load()) return;
    Send(edit);
    ++(edit ? edits : batches);
  }
}

void OpenLoopWriter::WatchLoop() {
  while (true) {
    Pending pending;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      ready_.wait(lock, [&] { return !pending_.empty() || sending_done_; });
      if (pending_.empty()) return;
      pending = std::move(pending_.front());
      pending_.pop_front();
    }
    const amici::Status status = pending.ticket.Wait();
    const double visible_ms = (NowNs() - pending.enqueued_ns) / 1e6;
    std::lock_guard<std::mutex> lock(mutex_);
    if (!status.ok()) {
      ++records_.failed;
    } else {
      (pending.edit ? records_.edit_visible_ms : records_.visible_ms)
          .push_back(visible_ms);
    }
  }
}

WriteRecords RunWriteProbe(amici::SearchService* service, ItemSource* items,
                           EditSource* edits, size_t batches,
                           size_t batch_size, size_t edit_every) {
  WriteRecords records;
  for (size_t b = 0; b < batches; ++b) {
    std::vector<amici::Item> batch = items->Batch(batch_size);
    const int64_t start = NowNs();
    auto ticket = service->EnqueueItems(std::move(batch));
    const int64_t enqueued = NowNs();
    ++records.attempted;
    if (!ticket.ok() || !ticket.value().Wait().ok()) {
      ++records.failed;
      continue;
    }
    records.enqueue_us.push_back((enqueued - start) / 1e3);
    records.visible_ms.push_back((NowNs() - start) / 1e6);

    if ((b + 1) % edit_every != 0) continue;
    const int64_t edit_start = NowNs();
    auto edit = EnqueueEdit(service, edits);
    ++records.attempted;
    if (!edit.ok() || !edit.value().Wait().ok()) {
      ++records.failed;
      continue;
    }
    records.edit_visible_ms.push_back((NowNs() - edit_start) / 1e6);
  }
  return records;
}

}  // namespace servebench
