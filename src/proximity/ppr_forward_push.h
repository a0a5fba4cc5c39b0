#ifndef AMICI_PROXIMITY_PPR_FORWARD_PUSH_H_
#define AMICI_PROXIMITY_PPR_FORWARD_PUSH_H_

#include <string_view>

#include "proximity/proximity_model.h"

namespace amici {

/// Local forward push (Andersen, Chung & Lang 2006): maintains per-user
/// estimates p and residuals r; repeatedly pushes any residual with
/// r[u] > epsilon · deg(u), settling restart_prob of it into p[u] and
/// spreading the rest over u's friends. Touches only the vicinity of the
/// source — cost is O(1 / (restart_prob · epsilon)) independent of graph
/// size, which is what makes per-query PPR practical.
///
/// Guarantee: |p[v] − π[v]| ≤ epsilon · deg(v) for every v.
///
/// p, r and the queued flags live in dense scratch arrays indexed by
/// UserId, one set per thread that calls Compute (thread_local, so calls
/// on different threads share nothing). The scratch grows to the largest
/// graph the thread has seen, about 21 B × num_users (two doubles, a flag
/// byte and a touched-list slot per user), and is never shrunk; each call
/// zeroes only the rows it touched before returning. The FIFO push order
/// and every floating-point sum are those of the textbook hash-map
/// formulation (tests/testing/reference_ppr_push.h), so the vectors are
/// bit-identical to it.
class PprForwardPush : public ProximityModel {
 public:
  /// `restart_prob` in (0, 1); `epsilon` > 0 controls the accuracy/cost
  /// trade-off (smaller = more accurate, slower).
  explicit PprForwardPush(double restart_prob = 0.15, double epsilon = 1e-4);

  std::string_view name() const override { return "ppr-push"; }
  ProximityVector Compute(const SocialGraph& graph,
                          UserId source) const override;

  double epsilon() const { return epsilon_; }

 private:
  double restart_prob_;
  double epsilon_;
};

}  // namespace amici

#endif  // AMICI_PROXIMITY_PPR_FORWARD_PUSH_H_
