#include "ingest/compaction_policy.h"

namespace amici {

bool AdaptiveCompactionPolicy::ShouldCompact(
    const CompactionSignals& signals) const {
  if (signals.tail_items == 0) return false;
  if (signals.tail_items >= max_tail_items) return true;
  // Latency trigger: only on a measurement of the CURRENT tail (or a
  // prefix of it). An observation covering more items than the tail now
  // holds was taken against a pre-compaction tail that no longer exists;
  // acting on it would re-compact a near-empty tail back to back.
  return signals.tail_items >= min_tail_items &&
         signals.last_tail_scan_items <= signals.tail_items &&
         signals.last_tail_scan_ms > max_tail_scan_ms;
}

}  // namespace amici
