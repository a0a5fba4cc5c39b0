#ifndef AMICI_PROXIMITY_PROXIMITY_MODEL_H_
#define AMICI_PROXIMITY_PROXIMITY_MODEL_H_

#include <cstddef>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "graph/social_graph.h"
#include "util/ids.h"

namespace amici {

/// One (user, proximity) pair; proximity is normalized to (0, 1].
struct ProximityEntry {
  UserId user;
  float score;
};

/// Sparse social-proximity vector for one source user.
///
/// Normalization contract: scores lie in (0, 1] with the strongest
/// neighbour at exactly 1.0; the source itself is excluded; users absent
/// from the vector have proximity 0. Entries are ordered by decreasing
/// score (ties by ascending user id), which is exactly the "ranked access"
/// order SocialFirst consumes; `Proximity()` provides the "random access"
/// path content-first TA needs.
class ProximityVector {
 public:
  ProximityVector() = default;

  /// Takes raw (possibly unsorted, unnormalized) entries; drops
  /// non-positive scores, normalizes the max to 1, sorts, and builds the
  /// lookup table.
  static ProximityVector FromUnnormalized(std::vector<ProximityEntry> entries);

  /// Entries in decreasing-score order.
  const std::vector<ProximityEntry>& ranked() const { return ranked_; }

  /// Proximity of `u`, or 0 when u is not in the vector.
  float Proximity(UserId u) const {
    const auto it = lookup_.find(u);
    return it == lookup_.end() ? 0.0f : it->second;
  }

  bool empty() const { return ranked_.empty(); }
  size_t size() const { return ranked_.size(); }

  /// Largest score (1.0 by contract) or 0 for an empty vector.
  float MaxScore() const { return ranked_.empty() ? 0.0f : ranked_[0].score; }

 private:
  std::vector<ProximityEntry> ranked_;
  std::unordered_map<UserId, float> lookup_;
};

/// Strategy interface for social proximity. Implementations are pure
/// functions of (graph, source) and must be safe for concurrent use from
/// multiple threads.
class ProximityModel {
 public:
  virtual ~ProximityModel() = default;

  /// Short stable identifier used in bench output (e.g. "ppr-push").
  virtual std::string_view name() const = 0;

  /// Computes the proximity vector of `source` over `graph`.
  virtual ProximityVector Compute(const SocialGraph& graph,
                                  UserId source) const = 0;
};

}  // namespace amici

#endif  // AMICI_PROXIMITY_PROXIMITY_MODEL_H_
