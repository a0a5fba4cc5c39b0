#ifndef AMICI_PROXIMITY_PROXIMITY_MODEL_H_
#define AMICI_PROXIMITY_PROXIMITY_MODEL_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string_view>
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
///
/// Random access goes through a flat open-addressing copy of the entries:
/// a power-of-two slot array at most half full, probed linearly from a
/// multiplicative hash of the user id, with kInvalidUserId (score 0)
/// marking empty slots. Each entry costs 8 bytes in `ranked()` plus 16–32
/// bytes of slots.
class ProximityVector {
 public:
  ProximityVector() = default;

  /// Takes raw (possibly unsorted, unnormalized) entries; drops
  /// non-positive scores, normalizes the max to 1, sorts, and fills the
  /// open-addressing slots. User ids must be distinct and below
  /// kInvalidUserId.
  static ProximityVector FromUnnormalized(std::vector<ProximityEntry> entries);

  /// Entries in decreasing-score order.
  const std::vector<ProximityEntry>& ranked() const { return ranked_; }

  /// Proximity of `u`, or 0 when u is not in the vector.
  float Proximity(UserId u) const {
    if (slots_.empty()) return 0.0f;
    const size_t mask = slots_.size() - 1;
    for (size_t i = HomeSlot(u, slots_.size());; i = (i + 1) & mask) {
      const ProximityEntry& slot = slots_[i];
      // An empty slot ends the probe; its score is 0, which also answers
      // Proximity(kInvalidUserId).
      if (slot.user == u || slot.user == kInvalidUserId) return slot.score;
    }
  }

  bool empty() const { return ranked_.empty(); }
  size_t size() const { return ranked_.size(); }

  /// Largest score (1.0 by contract) or 0 for an empty vector.
  float MaxScore() const { return ranked_.empty() ? 0.0f : ranked_[0].score; }

  /// Slot where the probe for `u` starts in a table of `num_slots` (a
  /// power of two, at least 2): the top bits of a Fibonacci hash.
  static size_t HomeSlot(UserId u, size_t num_slots) {
    const uint32_t hash = u * 0x9E3779B1u;
    return hash >> (32 - std::countr_zero(num_slots));
  }

  /// Slots in the lookup table (0 for an empty vector).
  size_t num_slots() const { return slots_.size(); }

 private:
  std::vector<ProximityEntry> ranked_;
  std::vector<ProximityEntry> slots_;
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
