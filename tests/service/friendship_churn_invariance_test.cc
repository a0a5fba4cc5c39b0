// Randomized friendship-churn invariance: a stream of interleaved
// Add/RemoveFriendship edits and queries applied identically to a serial
// single-engine reference and to a fleet of variant backends must keep
// every backend bit-identical at every step — including across the graph
// generation bumps the edits cause (each edit publishes a new generation
// through the ProximityProvider, and every shard must adopt it before the
// next query).
//
// The fleet covers two axes:
//  * SHARDS: 1/2/4-shard services over the one shared provider (the item
//    corpus is partitioned; the graph is one provider);
//  * FOLDS: 1- and 4-shard services whose provider runs an aggressive
//    fold policy AND explicit mid-run FoldOverlay calls — folds are
//    representation changes, so a backend that folds constantly must
//    stay bit-identical to one that never does, at the same published
//    generations.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "proximity_service/overlay_fold_policy.h"
#include "service/sharded_search_service.h"
#include "testing/reference_engine.h"
#include "util/rng.h"
#include "workload/dataset_generator.h"

namespace amici {
namespace {

constexpr size_t kShardCounts[] = {1, 2, 4};
constexpr size_t kFoldingShardCounts[] = {1, 4};

DatasetConfig TestConfig(uint64_t seed) {
  DatasetConfig config = SmallDataset();
  config.num_users = 250;
  config.items_per_user = 3.0;
  config.num_tags = 120;
  config.seed = seed;
  return config;
}

/// One backend under test plus how the run should exercise its folds.
struct Backend {
  std::unique_ptr<SearchService> service;
  std::string label;
  /// Call FoldOverlay explicitly during the run.
  bool fold_midrun = false;
  /// Assert the backend actually folded by the end.
  bool expect_folds = false;
};

std::unique_ptr<SearchService> BuildSharded(const DatasetConfig& config,
                                            size_t shards,
                                            bool aggressive_folds) {
  // The generator is deterministic: every backend consumes the identical
  // corpus and graph.
  Dataset dataset = GenerateDataset(config).value();
  ShardedSearchService::Options options;
  options.num_shards = shards;
  if (aggressive_folds) {
    // Fold after a handful of patched rows, so the run folds many times
    // mid-churn instead of once at the end.
    options.engine.proximity_fold_policy.max_patch_rows = 6;
  }
  auto sharded = ShardedSearchService::Build(std::move(dataset.graph),
                                             std::move(dataset.store),
                                             std::move(options));
  EXPECT_TRUE(sharded.ok()) << sharded.status().ToString();
  return std::move(sharded).value();
}

std::vector<Backend> BuildFleet(const DatasetConfig& config) {
  std::vector<Backend> fleet;
  for (const size_t shards : kShardCounts) {
    // The default policy folds rarely if ever: the contrast.
    Backend b;
    b.service = BuildSharded(config, shards, /*aggressive_folds=*/false);
    b.label = std::to_string(shards) + "-shard";
    fleet.push_back(std::move(b));
  }
  for (const size_t shards : kFoldingShardCounts) {
    Backend b;
    b.service = BuildSharded(config, shards, /*aggressive_folds=*/true);
    b.label = std::to_string(shards) + "-shard-folding";
    b.fold_midrun = true;
    b.expect_folds = true;
    fleet.push_back(std::move(b));
  }
  return fleet;
}

std::vector<SearchRequest> ProbeRequests(uint64_t seed, size_t num_users) {
  Rng rng(seed);
  std::vector<SearchRequest> requests;
  for (int i = 0; i < 6; ++i) {
    SearchRequest request;
    request.query.user = static_cast<UserId>(rng.UniformIndex(num_users));
    request.query.tags = {static_cast<TagId>(rng.UniformIndex(120))};
    request.query.k = 1 + rng.UniformIndex(12);
    request.query.alpha = 0.2 + 0.6 * rng.UniformDouble();
    requests.push_back(request);
    // A tag-less pure-social feed for the same user: the query shape most
    // sensitive to graph churn.
    SearchRequest feed;
    feed.query.user = request.query.user;
    feed.query.alpha = 1.0;
    feed.query.k = 8;
    requests.push_back(feed);
  }
  return requests;
}

TEST(FriendshipChurnInvarianceTest, InterleavedEditsAndQueriesStayIdentical) {
  for (const uint64_t seed : {3u, 21u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const DatasetConfig config = TestConfig(seed);

    // Reference: the serial replay on one bare engine. Every fleet
    // variant must track it through every edit.
    auto reference = BuildReferenceEngine(GenerateDataset(config).value());
    std::vector<Backend> fleet = BuildFleet(config);
    const size_t num_users = reference->graph().num_users();

    Rng rng(seed * 31 + 7);
    // Edges we added and can later remove (removing a random pair is
    // nearly always NotFound; churning our own additions exercises both
    // directions for real).
    std::vector<std::pair<UserId, UserId>> added;
    for (int step = 0; step < 30; ++step) {
      const bool remove = !added.empty() && rng.Bernoulli(0.4);
      UserId u, v;
      if (remove) {
        const size_t pick = rng.UniformIndex(added.size());
        u = added[pick].first;
        v = added[pick].second;
        added.erase(added.begin() + static_cast<ptrdiff_t>(pick));
      } else {
        u = static_cast<UserId>(rng.UniformIndex(num_users));
        v = static_cast<UserId>(rng.UniformIndex(num_users));
      }

      // Apply the same edit everywhere; every backend must agree on the
      // verdict (Ok / AlreadyExists / NotFound / InvalidArgument).
      const Status expected_status = remove
                                         ? reference->RemoveFriendship(u, v)
                                         : reference->AddFriendship(u, v);
      for (const auto& backend : fleet) {
        const Status status = remove ? backend.service->RemoveFriendship(u, v)
                                     : backend.service->AddFriendship(u, v);
        EXPECT_EQ(expected_status.code(), status.code())
            << backend.label << " step " << step;
      }
      if (!remove && expected_status.ok()) added.push_back({u, v});

      // Fold mid-run on the designated backends only: a fold is a
      // representation change, so folding/never-folding backends must
      // stay indistinguishable query-by-query.
      if (step % 8 == 3) {
        for (const auto& backend : fleet) {
          if (backend.fold_midrun) {
            (void)backend.service->proximity_provider()->FoldOverlay();
          }
        }
      }

      // Probe after every few edits (every edit would be slow: each one
      // recomputes proximity for the probed users on every backend).
      if (step % 5 != 4) continue;
      const std::vector<SearchRequest> requests =
          ProbeRequests(seed * 131 + static_cast<uint64_t>(step), num_users);
      for (size_t i = 0; i < requests.size(); ++i) {
        const auto want = ReferenceSearch(*reference, requests[i]);
        for (const auto& backend : fleet) {
          ExpectSameResponse(
              want, backend.service->Search(requests[i]),
              backend.label + " step " + std::to_string(step) + " request " +
                  std::to_string(i));
        }
      }
    }

    // Quiesced: all backends converged to the same final graph at the
    // same published generation count (folds must NOT have bumped it).
    for (const auto& backend : fleet) {
      const ProximityProviderStats stats =
          backend.service->proximity_stats();
      EXPECT_EQ(reference->proximity().stats().generations_published,
                stats.generations_published)
          << backend.label;
      if (backend.expect_folds) {
        EXPECT_GT(stats.overlay_folds, 0u) << backend.label;
      }
      for (UserId user = 0; user < 10; ++user) {
        const auto friends = reference->graph().Friends(user);
        EXPECT_EQ(std::vector<UserId>(friends.begin(), friends.end()),
                  backend.service->FriendsOf(user))
            << backend.label << " user " << user;
      }
    }
  }
}

}  // namespace
}  // namespace amici
