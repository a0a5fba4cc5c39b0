#ifndef AMICI_INGEST_INGEST_SINK_H_
#define AMICI_INGEST_INGEST_SINK_H_

#include <span>
#include <vector>

#include "storage/item_store.h"
#include "util/ids.h"
#include "util/status.h"

namespace amici {

/// The synchronous write surface the ingest pipeline drains into.
/// SearchService implements it with its own mutators (tests substitute
/// recording fakes), which is what lets the pipeline live below the
/// service layer without depending on it.
///
/// Contract (inherited by every implementation):
///  * AddItems appends a batch atomically (all-or-nothing) and returns
///    ids in batch order; safe concurrently with queries, serializes with
///    other mutators;
///  * AddFriendship / RemoveFriendship edit one edge everywhere the graph
///    lives (AlreadyExists / NotFound on duplicates / missing edges).
class IngestSink {
 public:
  virtual ~IngestSink() = default;

  virtual Result<std::vector<ItemId>> AddItems(
      std::span<const Item> items) = 0;
  virtual Status AddFriendship(UserId u, UserId v) = 0;
  virtual Status RemoveFriendship(UserId u, UserId v) = 0;
};

}  // namespace amici

#endif  // AMICI_INGEST_INGEST_SINK_H_
