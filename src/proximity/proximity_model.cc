#include "proximity/proximity_model.h"

#include <algorithm>
#include <bit>

namespace amici {

ProximityVector ProximityVector::FromUnnormalized(
    std::vector<ProximityEntry> entries) {
  ProximityVector out;
  entries.erase(std::remove_if(entries.begin(), entries.end(),
                               [](const ProximityEntry& e) {
                                 return !(e.score > 0.0f);
                               }),
                entries.end());
  if (entries.empty()) return out;

  float max_score = 0.0f;
  for (const auto& e : entries) max_score = std::max(max_score, e.score);
  for (auto& e : entries) e.score /= max_score;

  std::sort(entries.begin(), entries.end(),
            [](const ProximityEntry& a, const ProximityEntry& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.user < b.user;
            });
  // Load at most 1/2 keeps linear-probe chains short.
  out.slots_.assign(std::bit_ceil(entries.size() * 2),
                    ProximityEntry{kInvalidUserId, 0.0f});
  const size_t mask = out.slots_.size() - 1;
  for (const auto& e : entries) {
    size_t i = HomeSlot(e.user, out.slots_.size());
    while (out.slots_[i].user != kInvalidUserId) i = (i + 1) & mask;
    out.slots_[i] = e;
  }
  out.ranked_ = std::move(entries);
  return out;
}

}  // namespace amici
