#ifndef AMICI_INGEST_COMPACTION_POLICY_H_
#define AMICI_INGEST_COMPACTION_POLICY_H_

#include <cstddef>

namespace amici {

/// The trigger inputs a compaction policy observes for ONE engine (one
/// shard). Tail size is read live from the engine snapshot; the tail-scan
/// latency is the most recent query's observation as recorded by
/// EngineStats::RecordTailScan (and reset by compaction).
struct CompactionSignals {
  /// Items in the un-indexed tail right now.
  size_t tail_items = 0;
  /// Items covered by the current indexes (the compaction cost proxy).
  size_t indexed_items = 0;
  /// Tail-fold latency of the most recent query, milliseconds; 0 when no
  /// query has scanned a tail since the last compaction.
  double last_tail_scan_ms = 0.0;
  /// Tail size that query observed. When it EXCEEDS tail_items the
  /// observation predates a compaction (tails only shrink by compacting)
  /// — a query pinned to an old snapshot wrote its stale measurement
  /// after the compaction reset the stats — and the latency reading must
  /// not be trusted against the current, smaller tail.
  size_t last_tail_scan_items = 0;
};

/// Decides when an engine's tail should be folded into fresh indexes:
/// compact when the tail is large in absolute terms OR when queries are
/// measurably paying for it (tail-scan latency over budget, gated on a
/// minimum tail so a timing blip on a near-empty tail cannot trigger a
/// full index rebuild). An empty tail never triggers. A plain value: the
/// scheduler holds one copy and consults it for every shard.
struct AdaptiveCompactionPolicy {
  /// Tail-size trigger: compact once this many items are un-indexed.
  size_t max_tail_items = 8192;
  /// Latency trigger: compact once a query's tail fold costs more than
  /// this many milliseconds...
  double max_tail_scan_ms = 2.0;
  /// ...provided the tail holds at least this many items.
  size_t min_tail_items = 64;

  /// True when `signals` warrants compacting this shard now.
  bool ShouldCompact(const CompactionSignals& signals) const;
};

}  // namespace amici

#endif  // AMICI_INGEST_COMPACTION_POLICY_H_
