// ProximityProvider: the one graph + proximity surface behind every
// engine. Covers the RCU-style generation publishes, edge-edit
// validation, single-flight computation de-duplication (the property the
// sharded fan-out relies on: 1 computation per (user, generation), not
// N), the background warm-over after a generation bump, and overlay
// folds being invisible to everything but the representation.

#include "proximity/proximity_provider.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "graph/graph_builder.h"
#include "graph/graph_generators.h"
#include "gtest/gtest.h"
#include "proximity/hop_decay.h"
#include "proximity_service/overlay_fold_policy.h"
#include "util/rng.h"

namespace amici {
namespace {

/// Counts Compute calls; optionally stalls them so a test can force the
/// single-flight race window open.
class CountingModel : public ProximityModel {
 public:
  CountingModel() = default;
  std::string_view name() const override { return "counting"; }
  ProximityVector Compute(const SocialGraph& graph,
                          UserId source) const override {
    computations_.fetch_add(1);
    while (stalled_.load()) {
      std::this_thread::yield();
    }
    return inner_.Compute(graph, source);
  }
  int computations() const { return computations_.load(); }
  void set_stalled(bool stalled) { stalled_.store(stalled); }

 private:
  HopDecayProximity inner_;
  mutable std::atomic<int> computations_{0};
  mutable std::atomic<bool> stalled_{false};
};

ProximityProvider::Options TestOptions(
    std::shared_ptr<const ProximityModel> model, size_t warm_top_n = 0) {
  ProximityProvider::Options options;
  options.model = std::move(model);
  options.cache_capacity = 64;
  options.warm_top_n = warm_top_n;
  return options;
}

SocialGraph TestGraph(size_t num_users = 100) {
  Rng rng(7);
  return GenerateErdosRenyi(num_users, 5.0, &rng);
}

TEST(ProximityProviderTest, CachesPerUserAndGeneration) {
  auto model = std::make_shared<CountingModel>();
  ProximityProvider provider(TestGraph(), TestOptions(model));

  const auto view = provider.Acquire();
  EXPECT_EQ(view.generation, 0u);

  ProximityOutcome outcome;
  const auto first =
      provider.GetProximity(*view.graph, 3, view.generation, &outcome);
  EXPECT_EQ(outcome, ProximityOutcome::kComputed);
  const auto second =
      provider.GetProximity(*view.graph, 3, view.generation, &outcome);
  EXPECT_EQ(outcome, ProximityOutcome::kCacheHit);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(model->computations(), 1);

  const ProximityProviderStats stats = provider.stats();
  EXPECT_EQ(stats.computations, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.generations_published, 0u);
  EXPECT_EQ(stats.cache_entries, 1u);
}

TEST(ProximityProviderTest, EditsPublishNewGenerationsRcuStyle) {
  auto model = std::make_shared<CountingModel>();
  ProximityProvider provider(TestGraph(4), TestOptions(model));
  // A 4-user graph from the generator may have arbitrary edges; work with
  // an explicit pair instead.
  GraphBuilder builder(4);
  ASSERT_TRUE(builder.AddEdge(0, 1).ok());
  ProximityProvider explicit_provider(builder.Build(), TestOptions(model));

  const auto before = explicit_provider.Acquire();
  ASSERT_TRUE(explicit_provider.AddFriendship(1, 2).ok());
  const auto after = explicit_provider.Acquire();

  // The old view is pinned and untouched; the new one has the edge.
  EXPECT_FALSE(before.graph->HasEdge(1, 2));
  EXPECT_TRUE(after.graph->HasEdge(1, 2));
  EXPECT_EQ(before.generation, 0u);
  EXPECT_EQ(after.generation, 1u);
  EXPECT_EQ(explicit_provider.stats().generations_published, 1u);

  ASSERT_TRUE(explicit_provider.RemoveFriendship(1, 2).ok());
  EXPECT_EQ(explicit_provider.Acquire().generation, 2u);
  EXPECT_FALSE(explicit_provider.Acquire().graph->HasEdge(1, 2));
}

TEST(ProximityProviderTest, ValidatesEditsWithoutRebuilding) {
  auto model = std::make_shared<CountingModel>();
  GraphBuilder builder(3);
  ASSERT_TRUE(builder.AddEdge(0, 1).ok());
  ProximityProvider provider(builder.Build(), TestOptions(model));

  EXPECT_EQ(provider.AddFriendship(0, 0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(provider.AddFriendship(0, 9).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(provider.AddFriendship(0, 1).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(provider.AddFriendship(1, 0).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(provider.RemoveFriendship(0, 2).code(), StatusCode::kNotFound);
  EXPECT_EQ(provider.RemoveFriendship(2, 2).code(),
            StatusCode::kInvalidArgument);
  // None of the rejected edits published anything.
  EXPECT_EQ(provider.Acquire().generation, 0u);
  EXPECT_EQ(provider.stats().generations_published, 0u);

  // The preview applies the same rules without editing; without the
  // existence check only the structural rules remain.
  EXPECT_EQ(provider.ValidateEdit(0, 1, /*adding=*/true,
                                  /*check_existence=*/true)
                .code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(provider.ValidateEdit(0, 1, /*adding=*/true,
                                    /*check_existence=*/false)
                  .ok());
  EXPECT_EQ(provider.ValidateEdit(0, 2, /*adding=*/false,
                                  /*check_existence=*/true)
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(provider.ValidateEdit(2, 2, /*adding=*/true,
                                  /*check_existence=*/false)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(provider.ValidateEdit(0, 9, /*adding=*/false,
                                  /*check_existence=*/false)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(provider.Acquire().generation, 0u);
}

TEST(ProximityProviderTest, SingleFlightSharesOneComputation) {
  auto model = std::make_shared<CountingModel>();
  ProximityProvider provider(TestGraph(), TestOptions(model));
  const auto view = provider.Acquire();

  // Stall the model so every thread reaches the miss path before the
  // leader can publish, maximizing the chance of a genuine race.
  model->set_stalled(true);
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> started{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      started.fetch_add(1);
      (void)provider.GetProximity(*view.graph, 42, view.generation);
    });
  }
  while (started.load() < kThreads) std::this_thread::yield();
  model->set_stalled(false);
  for (auto& thread : threads) thread.join();

  // The defining property: ONE computation, everyone else either hit the
  // cache or joined the in-flight computation.
  EXPECT_EQ(model->computations(), 1);
  const ProximityProviderStats stats = provider.stats();
  EXPECT_EQ(stats.computations, 1u);
  EXPECT_EQ(stats.cache_hits + stats.inflight_joins,
            static_cast<uint64_t>(kThreads - 1));
}

TEST(ProximityProviderTest, WarmOverRecomputesHotUsersInBackground) {
  auto model = std::make_shared<CountingModel>();
  ProximityProvider provider(TestGraph(),
                                   TestOptions(model, /*warm_top_n=*/4));
  const auto view = provider.Acquire();

  // Make users 1..3 hot (3 hottest = the warm candidates), user 9 cold
  // enough to matter less (still within top 4 here).
  for (const UserId user : {UserId{1}, UserId{2}, UserId{3}, UserId{9}}) {
    (void)provider.GetProximity(*view.graph, user, view.generation);
  }
  const int cold_computations = model->computations();
  EXPECT_EQ(cold_computations, 4);

  // Bump the generation via an edge that is definitely absent.
  UserId other = 1;
  while (view.graph->HasEdge(0, other)) ++other;
  ASSERT_TRUE(provider.AddFriendship(0, other).ok());
  provider.WaitForWarmup();

  // The warm-over recomputed the hot users against the NEW generation...
  const ProximityProviderStats stats = provider.stats();
  EXPECT_EQ(stats.warmed, 4u);
  EXPECT_EQ(model->computations(), cold_computations + 4);

  // ... so their next query on that generation is a pure cache hit.
  const auto fresh = provider.Acquire();
  ASSERT_EQ(fresh.generation, 1u);
  ProximityOutcome outcome;
  (void)provider.GetProximity(*fresh.graph, 2, fresh.generation, &outcome);
  EXPECT_EQ(outcome, ProximityOutcome::kCacheHit);
  EXPECT_EQ(model->computations(), cold_computations + 4);
}

void ExpectSameVector(const std::shared_ptr<const ProximityVector>& got,
                      const std::shared_ptr<const ProximityVector>& want) {
  ASSERT_NE(got, nullptr);
  ASSERT_NE(want, nullptr);
  const auto& g = got->ranked();
  const auto& w = want->ranked();
  ASSERT_EQ(g.size(), w.size());
  for (size_t i = 0; i < w.size(); ++i) {
    ASSERT_EQ(g[i].user, w[i].user) << "entry " << i;
    ASSERT_EQ(g[i].score, w[i].score) << "entry " << i;
  }
}

TEST(ProximityProviderTest, FoldsMidChurnAreInvisible) {
  // Twin providers over the same graph and edit stream: one folds after
  // a handful of patched rows (plus explicit folds on top), the other
  // keeps the default policy, which never folds a patch this small.
  ProximityProvider::Options twin_options;
  twin_options.model = std::make_shared<HopDecayProximity>();
  twin_options.warm_top_n = 0;
  ProximityProvider reference(TestGraph(60), twin_options);

  ProximityProvider::Options fold_options = twin_options;
  fold_options.fold_policy.max_patch_rows = 4;
  ProximityProvider folding(TestGraph(60), fold_options);

  Rng rng(5);
  for (int step = 0; step < 40; ++step) {
    const UserId u = static_cast<UserId>(rng.UniformIndex(60));
    UserId v = static_cast<UserId>(rng.UniformIndex(60));
    if (u == v) v = (v + 1) % 60;
    const bool adding = !reference.Acquire().graph->HasEdge(u, v);
    ASSERT_EQ((adding ? reference.AddFriendship(u, v)
                      : reference.RemoveFriendship(u, v))
                  .code(),
              (adding ? folding.AddFriendship(u, v)
                      : folding.RemoveFriendship(u, v))
                  .code())
        << "step " << step;
    if (step % 7 == 0) folding.FoldOverlay();

    const auto ref_view = reference.Acquire();
    const auto fold_view = folding.Acquire();
    // Folds change representation, NOT the published generation.
    ASSERT_EQ(ref_view.generation, fold_view.generation);
    ASSERT_EQ(ref_view.graph->num_edges(), fold_view.graph->num_edges());
    for (int probe = 0; probe < 2; ++probe) {
      const UserId user = static_cast<UserId>(rng.UniformIndex(60));
      const auto ref_friends = ref_view.graph->Friends(user);
      const auto fold_friends = fold_view.graph->Friends(user);
      ASSERT_TRUE(std::equal(ref_friends.begin(), ref_friends.end(),
                             fold_friends.begin(), fold_friends.end()))
          << "step " << step << " user " << user;
      ExpectSameVector(
          folding.GetProximity(*fold_view.graph, user, fold_view.generation),
          reference.GetProximity(*ref_view.graph, user, ref_view.generation));
    }
  }
  EXPECT_GT(folding.stats().overlay_folds, 0u);
  EXPECT_EQ(reference.stats().overlay_folds, 0u);
  EXPECT_GT(reference.stats().overlay_rows, 0u);

  // A quiescent fold leaves no patch behind and keeps the generation.
  const uint64_t generation = reference.Acquire().generation;
  EXPECT_GT(reference.FoldOverlay(), 0u);
  EXPECT_EQ(reference.stats().overlay_rows, 0u);
  EXPECT_FALSE(reference.Acquire().graph->has_overlay());
  EXPECT_EQ(reference.Acquire().generation, generation);
  EXPECT_EQ(reference.FoldOverlay(), 0u);  // nothing left to fold
}

}  // namespace
}  // namespace amici
