#ifndef AMICI_PROXIMITY_SERVICE_OVERLAY_FOLD_POLICY_H_
#define AMICI_PROXIMITY_SERVICE_OVERLAY_FOLD_POLICY_H_

#include <cstddef>

namespace amici {

/// The trigger inputs a fold policy observes for one delta-overlay graph
/// (the graph-side analogue of CompactionSignals in src/ingest/): how much
/// patch is riding on top of the base CSR right now.
struct OverlaySignals {
  /// Replacement rows currently overlaying the base.
  size_t patch_rows = 0;
  /// Adjacency entries across those rows (the per-query indirection cost
  /// proxy: every Friends() call on a patched user walks this storage).
  size_t patch_slots = 0;
  /// Adjacency entries in the base CSR (the fold cost proxy — folding
  /// rewrites the whole base).
  size_t base_slots = 0;
};

/// Decides when a delta-overlay graph's patch should be folded into a
/// fresh base CSR: fold when the patch is large in absolute terms (row
/// count) OR large relative to the base (patch slots exceed a fraction of
/// the base, floored so small test graphs do not fold on every edit). An
/// empty patch never triggers. A plain value, held by copy in
/// ProximityProvider::Options (same shape as AdaptiveCompactionPolicy).
struct AdaptiveOverlayFoldPolicy {
  /// Row-count trigger: fold once this many users carry replacement rows
  /// (bounds per-edit copy-on-write cost, which is linear in the touched
  /// bucket's row count).
  size_t max_patch_rows = 1024;
  /// Ratio trigger: fold once patch slots exceed this fraction of the
  /// base adjacency...
  double max_slot_ratio = 0.25;
  /// ...where the base is treated as at least this many slots (keeps tiny
  /// graphs from folding on every edit).
  size_t min_base_slots = 8192;

  /// True when `signals` warrants folding now.
  bool ShouldFold(const OverlaySignals& signals) const;
};

}  // namespace amici

#endif  // AMICI_PROXIMITY_SERVICE_OVERLAY_FOLD_POLICY_H_
