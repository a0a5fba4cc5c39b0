#ifndef AMICI_GRAPH_SOCIAL_GRAPH_H_
#define AMICI_GRAPH_SOCIAL_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "util/ids.h"

namespace amici {

/// An immutable patch of whole adjacency rows layered over a base CSR:
/// for each touched user the overlay stores that user's COMPLETE current
/// friend row (sorted, unique), which SocialGraph::Friends consults before
/// falling back to the base arrays. Replacing whole rows (rather than
/// diffing adds/tombstones per probe) keeps neighbor iteration a single
/// span either way — queries cannot tell an overlaid graph from a flat
/// one, which is what the churn-invariance suite proves.
class GraphOverlay {
 public:
  using Row = std::vector<UserId>;
  using RowMap = std::unordered_map<UserId, std::shared_ptr<const Row>>;

  /// `rows` (non-null) holds the replacement row of every patched user.
  /// `slot_delta` is (total adjacency entries of the overlaid graph) −
  /// (entries of the base CSR) — kept precomputed so num_edges() stays
  /// O(1).
  GraphOverlay(std::shared_ptr<const RowMap> rows, int64_t slot_delta);

  /// The replacement row of `u`, or null when the base row stands.
  const Row* Find(UserId u) const {
    const auto it = rows_->find(u);
    return it == rows_->end() ? nullptr : it->second.get();
  }

  /// Replacement rows.
  size_t num_rows() const { return rows_->size(); }
  /// Adjacency entries across all replacement rows.
  size_t num_slots() const { return num_slots_; }
  /// Adjacency-slot difference vs the base CSR.
  int64_t slot_delta() const { return slot_delta_; }

  /// Visits every replacement row as fn(UserId, const Row&) (order is
  /// unspecified).
  template <typename Fn>
  void ForEachRow(Fn fn) const {
    for (const auto& [user, row] : *rows_) fn(user, *row);
  }

  size_t MemoryBytes() const;

 private:
  std::shared_ptr<const RowMap> rows_;
  size_t num_slots_ = 0;
  int64_t slot_delta_ = 0;
};

/// Immutable, undirected friendship graph: a compressed sparse row (CSR)
/// base, optionally overlaid with a GraphOverlay row patch (the
/// delta-overlay representation friendship edits publish — see
/// src/proximity_service/delta_overlay_graph.h). Adjacency lists are
/// sorted, enabling O(log d) edge probes and linear-merge neighbourhood
/// intersection; each undirected edge {u, v} is stored twice (once per
/// endpoint). Copies are shallow (the CSR arrays and overlay are shared,
/// immutable state), so passing graphs by value is cheap.
///
/// Construction goes through GraphBuilder (which deduplicates edges and
/// strips self-loops), a generator in graph_generators.h, or the overlay
/// constructor below.
class SocialGraph {
 public:
  /// An empty graph with no users.
  SocialGraph() : csr_(EmptyCsr()) {}

  /// Takes ownership of prebuilt CSR arrays. `offsets` has num_users + 1
  /// entries; neighbours within each row must be sorted and unique.
  /// Callers normally use GraphBuilder instead.
  SocialGraph(std::vector<uint64_t> offsets, std::vector<UserId> neighbors);

  /// Overlays `overlay` (non-null) on `base`, which must be a pure-CSR
  /// graph (has_overlay() false — overlays do not stack; fold first).
  /// Shares base's CSR arrays; O(1).
  SocialGraph(const SocialGraph& base,
              std::shared_ptr<const GraphOverlay> overlay);

  SocialGraph(const SocialGraph&) = default;
  SocialGraph& operator=(const SocialGraph&) = default;
  SocialGraph(SocialGraph&&) noexcept = default;
  SocialGraph& operator=(SocialGraph&&) noexcept = default;

  /// Number of users (vertices).
  size_t num_users() const { return csr_->offsets.size() - 1; }

  /// Number of undirected edges (overlay included).
  size_t num_edges() const { return total_adjacency_slots() / 2; }

  /// Degree (friend count) of `u`.
  size_t Degree(UserId u) const {
    if (overlay_ != nullptr) {
      if (const GraphOverlay::Row* row = overlay_->Find(u)) {
        return row->size();
      }
    }
    return static_cast<size_t>(csr_->offsets[u + 1] - csr_->offsets[u]);
  }

  /// Sorted friends of `u`; the span stays valid while the graph lives.
  std::span<const UserId> Friends(UserId u) const {
    if (overlay_ != nullptr) {
      if (const GraphOverlay::Row* row = overlay_->Find(u)) {
        return {row->data(), row->size()};
      }
    }
    return {csr_->neighbors.data() + csr_->offsets[u],
            csr_->neighbors.data() + csr_->offsets[u + 1]};
  }

  /// True iff u and v are friends. O(log Degree(u)).
  bool HasEdge(UserId u, UserId v) const;

  /// Mean degree; 0 for an empty graph.
  double AverageDegree() const;

  /// Maximum degree over all users; 0 for an empty graph.
  size_t MaxDegree() const;

  /// Approximate heap footprint (CSR arrays + overlay rows), in bytes.
  size_t MemoryBytes() const;

  /// Raw BASE-CSR access for serialization and algorithms. When
  /// has_overlay() is true these do NOT reflect the overlaid rows — use
  /// Friends()/Flatten() (persistence serializes base + overlay tail
  /// explicitly; see persist/snapshot.h).
  const std::vector<uint64_t>& offsets() const { return csr_->offsets; }
  const std::vector<UserId>& neighbors() const { return csr_->neighbors; }

  /// The row patch, or null for a pure-CSR graph.
  bool has_overlay() const { return overlay_ != nullptr; }
  const std::shared_ptr<const GraphOverlay>& overlay() const {
    return overlay_;
  }

  /// The base CSR as a graph of its own (shares storage; O(1)).
  SocialGraph BaseGraph() const;

  /// Materializes the overlaid adjacency into a fresh pure CSR — the
  /// fold step's O(U + E) rebuild. Returns *this (shared) when there is
  /// no overlay.
  SocialGraph Flatten() const;

  /// Adjacency entries including overlay replacements (= 2 × num_edges).
  size_t total_adjacency_slots() const {
    const size_t base = csr_->neighbors.size();
    return overlay_ == nullptr
               ? base
               : static_cast<size_t>(static_cast<int64_t>(base) +
                                     overlay_->slot_delta());
  }

 private:
  /// The immutable CSR arrays, shared across copies / overlay layers.
  struct Csr {
    std::vector<uint64_t> offsets{0};
    std::vector<UserId> neighbors;
  };

  static std::shared_ptr<const Csr> EmptyCsr();

  std::shared_ptr<const Csr> csr_;
  std::shared_ptr<const GraphOverlay> overlay_;
};

}  // namespace amici

#endif  // AMICI_GRAPH_SOCIAL_GRAPH_H_
