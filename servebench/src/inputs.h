#ifndef SERVEBENCH_INPUTS_H_
#define SERVEBENCH_INPUTS_H_

// Everything a run sends to the service, generated from the workload seed
// before the service exists: the query pool, the correctness probes, and
// the writes. The corpus itself is MediumDataset() with its own fixed
// seed, so every seed queries the same catalogue.

#include <cstdint>
#include <utility>
#include <vector>

#include "core/social_query.h"
#include "graph/social_graph.h"
#include "storage/item_store.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/zipf.h"
#include "workload/dataset_generator.h"

namespace servebench {

enum QueryClass : int32_t { kClassAny = 0, kClassAll = 1, kClassGeo = 2 };
inline constexpr int kNumQueryClasses = 3;
const char* QueryClassName(int32_t query_class);

/// How a workload draws its queries.
struct QueryMix {
  /// 0 = every user, drawn uniformly; otherwise this many degree-biased
  /// users issue every query.
  size_t query_users = 0;
  /// Shares of kAll and geo-filtered queries; the rest is kAny.
  double all_share = 0.0;
  double geo_share = 0.0;
  size_t pool_size = 0;
};

struct QueryPool {
  std::vector<amici::SocialQuery> queries;  // in request order (cycled)
  std::vector<int32_t> classes;             // QueryClass per query
  std::vector<size_t> probes;               // indices of the probe set
  size_t distinct_users = 0;
};

/// Draws the pool: k = 10, alpha = 0.5, algorithm left to the backend.
/// Tags follow the repo's query generator (70% drawn from the user's
/// neighbourhood). A fixed population of query users (mix.query_users >
/// 0) is drawn from `population_seed`, like the corpus a property of the
/// workload; the queries they issue, their classes and order come from
/// `seed`.
amici::Result<QueryPool> MakeQueryPool(const amici::Dataset& dataset,
                                       const QueryMix& mix,
                                       uint64_t population_seed, uint64_t seed,
                                       size_t probes_per_class);

/// Items shaped like the corpus: degree-biased owners, 1-5 Zipf tags,
/// skewed quality, half of them near an existing geo item.
class ItemSource {
 public:
  ItemSource(const amici::Dataset& dataset, uint64_t seed);
  std::vector<amici::Item> Batch(size_t count);

 private:
  const amici::Dataset& dataset_;
  amici::Rng rng_;
  amici::ZipfSampler tags_;
  std::vector<amici::ItemId> geo_items_;
};

/// Friendship edits that never fail: alternately adds a pair that is not
/// an edge and removes the pair it added last.
class EditSource {
 public:
  EditSource(size_t num_users, uint64_t seed);
  struct Edit {
    bool add = true;
    amici::UserId u = 0;
    amici::UserId v = 0;
  };
  /// `friends_of(u)` must return u's friends in the published graph.
  template <typename FriendsOf>
  Edit Next(const FriendsOf& friends_of);

 private:
  size_t num_users_;
  amici::Rng rng_;
  bool pending_remove_ = false;
  amici::UserId last_u_ = 0;
  amici::UserId last_v_ = 0;
};

template <typename FriendsOf>
EditSource::Edit EditSource::Next(const FriendsOf& friends_of) {
  if (pending_remove_) {
    pending_remove_ = false;
    return Edit{false, last_u_, last_v_};
  }
  while (true) {
    const auto u = static_cast<amici::UserId>(rng_.UniformIndex(num_users_));
    const auto v = static_cast<amici::UserId>(rng_.UniformIndex(num_users_));
    if (u == v || (u == last_u_ && v == last_v_) ||
        (u == last_v_ && v == last_u_)) {
      continue;
    }
    bool linked = false;
    for (const amici::UserId f : friends_of(u)) linked = linked || f == v;
    if (linked) continue;
    pending_remove_ = true;
    last_u_ = u;
    last_v_ = v;
    return Edit{true, u, v};
  }
}

/// Mixes a run seed with a stream id into an independent sub-seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

}  // namespace servebench

#endif  // SERVEBENCH_INPUTS_H_
