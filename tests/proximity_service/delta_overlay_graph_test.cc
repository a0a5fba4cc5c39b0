// DeltaOverlayGraph: the writer-side patch behind the proximity service.
// The load-bearing properties: a toggled edit stream composes to exactly
// the graph a from-scratch rebuild produces, folds are representation
// changes only, and the pin/adopt protocol keeps rows edited between the
// pin and the adopt (the off-lock-fold race).

#include "proximity_service/delta_overlay_graph.h"

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "graph/graph_builder.h"
#include "graph/graph_generators.h"
#include "gtest/gtest.h"
#include "util/rng.h"

namespace amici {
namespace {

using Edge = std::pair<UserId, UserId>;

Edge Canonical(UserId u, UserId v) {
  return {std::min(u, v), std::max(u, v)};
}

/// Applies one undirected edit as its two routed halves.
void ApplyEdit(DeltaOverlayGraph* delta, UserId u, UserId v, bool insert) {
  delta->ApplyHalf(u, v, insert);
  delta->ApplyHalf(v, u, insert);
}

SocialGraph Rebuild(size_t num_users, const std::set<Edge>& edges) {
  GraphBuilder builder(num_users);
  for (const auto& [u, v] : edges) EXPECT_TRUE(builder.AddEdge(u, v).ok());
  return builder.Build();
}

void ExpectSameGraph(const SocialGraph& got, const SocialGraph& want) {
  ASSERT_EQ(got.num_users(), want.num_users());
  ASSERT_EQ(got.num_edges(), want.num_edges());
  for (UserId u = 0; u < want.num_users(); ++u) {
    const auto g = got.Friends(u);
    const auto w = want.Friends(u);
    ASSERT_EQ(g.size(), w.size()) << "user " << u;
    for (size_t i = 0; i < w.size(); ++i) {
      ASSERT_EQ(g[i], w[i]) << "user " << u << " slot " << i;
    }
  }
}

std::set<Edge> EdgeSet(const SocialGraph& graph) {
  std::set<Edge> edges;
  for (UserId u = 0; u < graph.num_users(); ++u) {
    for (const UserId v : graph.Friends(u)) edges.insert(Canonical(u, v));
  }
  return edges;
}

TEST(DeltaOverlayGraphTest, RandomToggleTwinMatchesRebuild) {
  Rng rng(11);
  const size_t kUsers = 60;
  const SocialGraph seed = GenerateErdosRenyi(kUsers, 4.0, &rng);
  std::set<Edge> edges = EdgeSet(seed);

  DeltaOverlayGraph delta(seed);
  for (int step = 0; step < 400; ++step) {
    const UserId u = static_cast<UserId>(rng.UniformIndex(kUsers));
    UserId v = static_cast<UserId>(rng.UniformIndex(kUsers));
    if (u == v) v = (v + 1) % kUsers;
    const Edge e = Canonical(u, v);
    const bool insert = edges.find(e) == edges.end();
    ApplyEdit(&delta, u, v, insert);
    if (insert) {
      edges.insert(e);
    } else {
      edges.erase(e);
    }
    if (step % 25 == 0 || step == 399) {
      ExpectSameGraph(delta.Compose(), Rebuild(kUsers, edges));
    }
  }
  EXPECT_GT(delta.signals().patch_rows, 0u);
}

TEST(DeltaOverlayGraphTest, QuiescentFoldEmptiesPatchAndPreservesGraph) {
  Rng rng(23);
  const size_t kUsers = 40;
  const SocialGraph seed = GenerateErdosRenyi(kUsers, 3.0, &rng);
  std::set<Edge> edges = EdgeSet(seed);

  DeltaOverlayGraph delta(seed);
  ApplyEdit(&delta, 1, 2, edges.insert(Canonical(1, 2)).second);
  ApplyEdit(&delta, 3, 4, edges.insert(Canonical(3, 4)).second);
  ASSERT_GE(delta.signals().patch_rows, 2u);

  const auto pin = delta.PinForFold();
  const SocialGraph flat = pin.view.Flatten();
  EXPECT_FALSE(flat.has_overlay());
  const size_t folded = delta.AdoptFolded(pin, flat);
  EXPECT_GE(folded, 2u);

  // Nothing happened between pin and adopt, so the patch is fully gone
  // and the composed graph is now pure CSR with identical adjacency.
  EXPECT_EQ(delta.signals().patch_rows, 0u);
  const SocialGraph after = delta.Compose();
  EXPECT_FALSE(after.has_overlay());
  ExpectSameGraph(after, Rebuild(kUsers, edges));
}

TEST(DeltaOverlayGraphTest, EditsBetweenPinAndAdoptSurviveTheFold) {
  const size_t kUsers = 30;
  GraphBuilder builder(kUsers);
  ASSERT_TRUE(builder.AddEdge(0, 1).ok());
  ASSERT_TRUE(builder.AddEdge(2, 3).ok());
  std::set<Edge> edges = {{0, 1}, {2, 3}};

  DeltaOverlayGraph delta(builder.Build());
  ApplyEdit(&delta, 5, 6, true);
  edges.insert({5, 6});

  // Pin (as the fold's first critical section would)...
  const auto pin = delta.PinForFold();

  // ... then land edits "while the flatten runs off-lock". One touches a
  // row the pin already covers (5), one a fresh row pair.
  ApplyEdit(&delta, 5, 7, true);
  edges.insert({5, 7});
  ApplyEdit(&delta, 0, 1, false);
  edges.erase({0, 1});

  const SocialGraph flat = pin.view.Flatten();
  delta.AdoptFolded(pin, flat);

  // The post-pin edits must still be present as patch rows over the new
  // base, and the composed adjacency must match the reference exactly.
  EXPECT_GT(delta.signals().patch_rows, 0u);
  ExpectSameGraph(delta.Compose(), Rebuild(kUsers, edges));

  // A second quiescent fold clears the remainder.
  const auto pin2 = delta.PinForFold();
  delta.AdoptFolded(pin2, pin2.view.Flatten());
  EXPECT_EQ(delta.signals().patch_rows, 0u);
  ExpectSameGraph(delta.Compose(), Rebuild(kUsers, edges));
}

TEST(DeltaOverlayGraphTest, AdoptsInheritedOverlay) {
  Rng rng(31);
  const size_t kUsers = 50;
  const SocialGraph seed = GenerateErdosRenyi(kUsers, 3.0, &rng);
  std::set<Edge> edges = EdgeSet(seed);

  // Produce an overlaid graph with one delta...
  DeltaOverlayGraph first(seed);
  for (const UserId u : {UserId{10}, UserId{20}, UserId{30}}) {
    const Edge e = Canonical(u, u + 1);
    const bool insert = edges.find(e) == edges.end();
    ApplyEdit(&first, u, u + 1, insert);
    if (insert) {
      edges.insert(e);
    } else {
      edges.erase(e);
    }
  }
  const SocialGraph overlaid = first.Compose();
  ASSERT_TRUE(overlaid.has_overlay());

  // ... and adopt it in a second (the snapshot-restore path).
  DeltaOverlayGraph second(overlaid);
  EXPECT_EQ(second.signals().patch_rows, first.signals().patch_rows);
  ExpectSameGraph(second.Compose(), Rebuild(kUsers, edges));

  // The adopted patch keeps editing and folding normally.
  ApplyEdit(&second, 40, 41, !overlaid.HasEdge(40, 41));
  if (!overlaid.HasEdge(40, 41)) {
    edges.insert({40, 41});
  } else {
    edges.erase({40, 41});
  }
  const auto pin = second.PinForFold();
  second.AdoptFolded(pin, pin.view.Flatten());
  ExpectSameGraph(second.Compose(), Rebuild(kUsers, edges));
}

TEST(DeltaOverlayGraphTest, SignalsTrackPatchGrowth) {
  GraphBuilder builder(16);
  ASSERT_TRUE(builder.AddEdge(0, 1).ok());
  DeltaOverlayGraph delta(builder.Build());

  OverlaySignals s = delta.signals();
  EXPECT_EQ(s.patch_rows, 0u);
  EXPECT_EQ(s.patch_slots, 0u);
  EXPECT_EQ(s.base_slots, 2u);

  ApplyEdit(&delta, 0, 2, true);
  s = delta.signals();
  // Rows 0 and 2 are patched: row 0 = {1, 2}, row 2 = {0}.
  EXPECT_EQ(s.patch_rows, 2u);
  EXPECT_EQ(s.patch_slots, 3u);

  ApplyEdit(&delta, 0, 1, false);
  s = delta.signals();
  // Row 1 joins the patch (now empty); row 0 shrinks to {2}.
  EXPECT_EQ(s.patch_rows, 3u);
  EXPECT_EQ(s.patch_slots, 2u);
  EXPECT_EQ(delta.Compose().num_edges(), 1u);
}

}  // namespace
}  // namespace amici
