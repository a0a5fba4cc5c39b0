#include "proximity_service/overlay_fold_policy.h"

#include <algorithm>

namespace amici {

bool AdaptiveOverlayFoldPolicy::ShouldFold(
    const OverlaySignals& signals) const {
  if (signals.patch_rows == 0) return false;
  if (signals.patch_rows >= max_patch_rows) return true;
  const double floor =
      static_cast<double>(std::max(signals.base_slots, min_base_slots));
  return static_cast<double>(signals.patch_slots) > max_slot_ratio * floor;
}

}  // namespace amici
