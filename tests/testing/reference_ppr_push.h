#ifndef AMICI_TESTS_TESTING_REFERENCE_PPR_PUSH_H_
#define AMICI_TESTS_TESTING_REFERENCE_PPR_PUSH_H_

#include <deque>
#include <unordered_map>
#include <vector>

#include "proximity/proximity_model.h"

namespace amici {

/// The hash-map forward push that PprForwardPush replaced with dense
/// thread-local scratch, kept as the twin's oracle: same FIFO push order,
/// same double sums, so both must return bit-identical vectors. Parameters
/// are not checked here; construct a PprForwardPush with the same values.
class ReferencePprForwardPush {
 public:
  ReferencePprForwardPush(double restart_prob, double epsilon)
      : restart_prob_(restart_prob), epsilon_(epsilon) {}

  ProximityVector Compute(const SocialGraph& graph, UserId source) const {
    std::unordered_map<UserId, double> estimate;
    std::unordered_map<UserId, double> residual;
    residual[source] = 1.0;
    std::deque<UserId> queue{source};
    std::unordered_map<UserId, bool> queued;
    queued[source] = true;

    while (!queue.empty()) {
      const UserId u = queue.front();
      queue.pop_front();
      queued[u] = false;
      const double r = residual[u];
      const size_t degree = graph.Degree(u);
      const double threshold =
          epsilon_ * static_cast<double>(degree == 0 ? 1 : degree);
      if (r < threshold) continue;

      residual[u] = 0.0;
      estimate[u] += restart_prob_ * r;
      if (degree == 0) {
        // Dangling user: the walk restarts, residual returns to the source.
        residual[source] += (1.0 - restart_prob_) * r;
        if (!queued[source]) {
          queue.push_back(source);
          queued[source] = true;
        }
        continue;
      }
      const double share =
          (1.0 - restart_prob_) * r / static_cast<double>(degree);
      for (const UserId v : graph.Friends(u)) {
        residual[v] += share;
        const size_t deg_v = graph.Degree(v);
        if (residual[v] >=
                epsilon_ * static_cast<double>(deg_v == 0 ? 1 : deg_v) &&
            !queued[v]) {
          queue.push_back(v);
          queued[v] = true;
        }
      }
    }

    std::vector<ProximityEntry> entries;
    entries.reserve(estimate.size());
    for (const auto& [user, score] : estimate) {
      if (user == source) continue;
      entries.push_back({user, static_cast<float>(score)});
    }
    return ProximityVector::FromUnnormalized(std::move(entries));
  }

 private:
  double restart_prob_;
  double epsilon_;
};

}  // namespace amici

#endif  // AMICI_TESTS_TESTING_REFERENCE_PPR_PUSH_H_
