#include "proximity/ppr_forward_push.h"

#include <cstdint>
#include <vector>

#include "util/logging.h"

namespace amici {

namespace {

/// Dense per-thread state of one Compute call, indexed by UserId. Rows a
/// call touches are listed in `touched` and zeroed again before it
/// returns, so every call starts from all-zero rows in O(touched) rather
/// than O(num_users).
struct PushScratch {
  static constexpr uint8_t kQueued = 1;
  static constexpr uint8_t kTouched = 2;

  std::vector<double> estimate;
  std::vector<double> residual;
  std::vector<uint8_t> flags;
  std::vector<UserId> touched;
  /// FIFO of users to push; Compute pops by advancing a head index.
  std::vector<UserId> queue;

  void GrowTo(size_t num_users) {
    if (flags.size() >= num_users) return;
    estimate.resize(num_users, 0.0);
    residual.resize(num_users, 0.0);
    flags.resize(num_users, 0);
  }

  void Touch(UserId u) {
    if ((flags[u] & kTouched) == 0) {
      flags[u] |= kTouched;
      touched.push_back(u);
    }
  }

  void Reset() {
    for (const UserId u : touched) {
      estimate[u] = 0.0;
      residual[u] = 0.0;
      flags[u] = 0;
    }
    touched.clear();
    queue.clear();
  }
};

}  // namespace

PprForwardPush::PprForwardPush(double restart_prob, double epsilon)
    : restart_prob_(restart_prob), epsilon_(epsilon) {
  AMICI_CHECK(restart_prob > 0.0 && restart_prob < 1.0);
  AMICI_CHECK(epsilon > 0.0);
}

ProximityVector PprForwardPush::Compute(const SocialGraph& graph,
                                        UserId source) const {
  AMICI_CHECK(source < graph.num_users());
  thread_local PushScratch scratch;
  scratch.GrowTo(graph.num_users());
  std::vector<double>& estimate = scratch.estimate;
  std::vector<double>& residual = scratch.residual;
  std::vector<uint8_t>& flags = scratch.flags;
  std::vector<UserId>& queue = scratch.queue;

  scratch.Touch(source);
  residual[source] = 1.0;
  queue.push_back(source);
  flags[source] |= PushScratch::kQueued;
  size_t num_pushed = 0;

  for (size_t head = 0; head < queue.size(); ++head) {
    const UserId u = queue[head];
    flags[u] &= PushScratch::kTouched;
    const double r = residual[u];
    const size_t degree = graph.Degree(u);
    const double threshold =
        epsilon_ * static_cast<double>(degree == 0 ? 1 : degree);
    if (r < threshold) continue;

    residual[u] = 0.0;
    if (estimate[u] == 0.0) ++num_pushed;
    estimate[u] += restart_prob_ * r;
    if (degree == 0) {
      // Dangling user: the walk restarts, residual returns to the source.
      residual[source] += (1.0 - restart_prob_) * r;
      if ((flags[source] & PushScratch::kQueued) == 0) {
        queue.push_back(source);
        flags[source] |= PushScratch::kQueued;
      }
      continue;
    }
    const double share =
        (1.0 - restart_prob_) * r / static_cast<double>(degree);
    for (const UserId v : graph.Friends(u)) {
      scratch.Touch(v);
      residual[v] += share;
      const size_t deg_v = graph.Degree(v);
      if (residual[v] >= epsilon_ * static_cast<double>(deg_v == 0 ? 1 : deg_v)
          && (flags[v] & PushScratch::kQueued) == 0) {
        queue.push_back(v);
        flags[v] |= PushScratch::kQueued;
      }
    }
  }

  // Touched users that were never pushed keep estimate 0 and are not
  // entries. The reserve is exact because the cached vector keeps this
  // buffer; sizing it by `touched` would hold several times the entries'
  // memory per vector.
  std::vector<ProximityEntry> entries;
  entries.reserve(num_pushed);
  for (const UserId user : scratch.touched) {
    if (user == source || estimate[user] == 0.0) continue;
    entries.push_back({user, static_cast<float>(estimate[user])});
  }
  scratch.Reset();
  return ProximityVector::FromUnnormalized(std::move(entries));
}

}  // namespace amici
