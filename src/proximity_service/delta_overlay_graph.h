#ifndef AMICI_PROXIMITY_SERVICE_DELTA_OVERLAY_GRAPH_H_
#define AMICI_PROXIMITY_SERVICE_DELTA_OVERLAY_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "graph/social_graph.h"
#include "proximity_service/overlay_fold_policy.h"

namespace amici {

/// The WRITER-side state of a delta-overlay graph: an immutable base CSR
/// plus the copy-on-write map of replacement rows edits have produced
/// since the last fold. One friendship edit costs O(deg(u) + deg(v)) row
/// rebuilds plus an O(patch rows) shallow map clone — NOT the O(E)
/// full-CSR rebuild the provider used to pay — and Compose() publishes
/// the result as an ordinary (immutable, shareable) SocialGraph.
///
/// Concurrency contract: this class has NO internal synchronization. The
/// owner (the ProximityProvider) serializes every call under its writer
/// mutex; readers only ever touch the
/// immutable SocialGraph objects Compose() hands out. The one deliberate
/// exception is the fold protocol, designed so the O(E) rebuild runs with
/// the writer mutex RELEASED:
///
///   pin = delta.PinForFold();        // under the writer mutex, O(1)
///   flat = pin.view.Flatten();       // OFF the mutex, O(U + E)
///   delta.AdoptFolded(pin, flat);    // under the mutex again, O(rows)
///
/// Edits that land between Pin and Adopt are safe: every row carries the
/// sequence number of its last edit, and AdoptFolded keeps exactly the
/// rows edited after the pin (a replacement row is the user's COMPLETE
/// adjacency, so it stays correct over any base).
class DeltaOverlayGraph {
 public:
  /// Adopts `graph` as the starting state, including any overlay it
  /// already carries (e.g. restored from a snapshot's overlay tail).
  explicit DeltaOverlayGraph(SocialGraph graph);

  DeltaOverlayGraph(const DeltaOverlayGraph&) = delete;
  DeltaOverlayGraph& operator=(const DeltaOverlayGraph&) = delete;

  /// Replaces u's row with (current row ± v): `insert` adds v, otherwise
  /// removes it. One undirected edit is two halves — ApplyHalf(u, v) and
  /// ApplyHalf(v, u). The caller has already validated the edit (this
  /// CHECKs instead of returning Status).
  void ApplyHalf(UserId u, UserId v, bool insert);

  /// The current base + patch composed as an immutable SocialGraph
  /// (pure CSR when the patch is empty). O(patch rows); the row map
  /// itself is shared, not copied.
  SocialGraph Compose() const;

  /// Fold protocol — see the class comment.
  struct FoldPin {
    uint64_t seq = 0;
    SocialGraph view;
  };
  FoldPin PinForFold() const;
  /// Installs `folded_base` (the pin's view flattened to a pure CSR) as
  /// the new base, dropping every row whose last edit is covered by the
  /// pin. Returns the number of rows folded away.
  size_t AdoptFolded(const FoldPin& pin, SocialGraph folded_base);

  /// Fold-policy signals for the current patch.
  OverlaySignals signals() const {
    OverlaySignals s;
    s.patch_rows = patch_rows_;
    s.patch_slots = patch_slots_;
    s.base_slots = base_.neighbors().size();
    return s;
  }

  size_t num_users() const { return base_.num_users(); }

 private:
  /// u's current row content (overlay row if patched, else base row).
  std::vector<UserId> CurrentRow(UserId u) const;

  SocialGraph base_;  // always pure CSR
  /// Published row map (shared with composed graphs); cloned on write.
  /// Null when the patch is empty.
  std::shared_ptr<const GraphOverlay::RowMap> rows_;
  /// Last-edit sequence per patched row (writer bookkeeping only; pruned
  /// by AdoptFolded alongside the rows).
  std::unordered_map<UserId, uint64_t> row_seq_;
  uint64_t last_seq_ = 0;
  size_t patch_rows_ = 0;
  size_t patch_slots_ = 0;
  int64_t slot_delta_ = 0;
};

}  // namespace amici

#endif  // AMICI_PROXIMITY_SERVICE_DELTA_OVERLAY_GRAPH_H_
