// Twin suite for PprForwardPush's dense thread-local scratch: every vector
// must be bit-identical (ranked users, float scores and random-access
// lookups) to the hash-map push in tests/testing/reference_ppr_push.h.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <thread>
#include <vector>

#include "graph/graph_builder.h"
#include "graph/graph_generators.h"
#include "gtest/gtest.h"
#include "proximity/ppr_forward_push.h"
#include "proximity_service/delta_overlay_graph.h"
#include "testing/reference_ppr_push.h"
#include "util/rng.h"

namespace amici {
namespace {

struct PushParams {
  double restart_prob;
  double epsilon;
};

// The default model and a coarser, faster-restarting one.
constexpr PushParams kParams[] = {{0.15, 1e-4}, {0.3, 1e-3}};

uint32_t Bits(float score) { return std::bit_cast<uint32_t>(score); }

// Number of differences between `expected` and `actual`: ranked entries
// (user and score bits) plus Proximity() of every user of the graph and
// of kInvalidUserId.
size_t CountDifferences(const ProximityVector& expected,
                        const ProximityVector& actual, size_t num_users) {
  size_t differences = 0;
  if (expected.size() != actual.size()) ++differences;
  const size_t common = std::min(expected.size(), actual.size());
  for (size_t i = 0; i < common; ++i) {
    const ProximityEntry& e = expected.ranked()[i];
    const ProximityEntry& a = actual.ranked()[i];
    if (e.user != a.user || Bits(e.score) != Bits(a.score)) ++differences;
  }
  for (UserId v = 0; v < num_users; ++v) {
    if (Bits(expected.Proximity(v)) != Bits(actual.Proximity(v))) {
      ++differences;
    }
  }
  if (Bits(actual.Proximity(kInvalidUserId)) != Bits(0.0f)) ++differences;
  return differences;
}

// Computes every source with both pushes and expects identical vectors.
void ExpectTwinOnEverySource(const SocialGraph& graph) {
  for (const PushParams& params : kParams) {
    const PprForwardPush push(params.restart_prob, params.epsilon);
    const ReferencePprForwardPush reference(params.restart_prob,
                                            params.epsilon);
    for (UserId source = 0; source < graph.num_users(); ++source) {
      const ProximityVector expected = reference.Compute(graph, source);
      const ProximityVector actual = push.Compute(graph, source);
      ASSERT_EQ(CountDifferences(expected, actual, graph.num_users()), 0u)
          << "source " << source << ", restart_prob " << params.restart_prob
          << ", epsilon " << params.epsilon;
      // Cached vectors keep their ranked buffer, so it must not be sized
      // by every user the push touched.
      ASSERT_LE(actual.ranked().capacity(), expected.ranked().capacity())
          << "source " << source;
    }
  }
}

SocialGraph PowerLawGraph(size_t num_users, uint64_t seed) {
  Rng rng(seed);
  return GenerateBarabasiAlbert(num_users, 4, &rng);
}

TEST(PprPushTwinTest, GeneratedGraphsMatchReference) {
  ExpectTwinOnEverySource(PowerLawGraph(500, 7));
  Rng rng(8);
  ExpectTwinOnEverySource(GeneratePlantedPartition(300, 6, 8.0, 1.0, &rng));
}

TEST(PprPushTwinTest, DegreeZeroUsersMatchReference) {
  // Users 0..9 stay isolated, so their sources take the restart-to-source
  // branch on every push; the rest form a sparse graph with a few more
  // isolated users scattered through it.
  constexpr size_t kUsers = 400;
  GraphBuilder builder(kUsers);
  Rng rng(9);
  for (size_t i = 0; i < 500; ++i) {
    const UserId u = 10 + static_cast<UserId>(rng.UniformIndex(kUsers - 10));
    const UserId v = 10 + static_cast<UserId>(rng.UniformIndex(kUsers - 10));
    if (u == v) continue;
    ASSERT_TRUE(builder.AddEdge(u, v).ok());
  }
  const SocialGraph graph = builder.Build();
  size_t isolated = 0;
  for (UserId u = 0; u < graph.num_users(); ++u) {
    isolated += graph.Degree(u) == 0 ? 1 : 0;
  }
  ASSERT_GT(isolated, 10u);
  ExpectTwinOnEverySource(graph);
}

TEST(PprPushTwinTest, OneWayEdgesIntoSinksMatchReference) {
  // In an undirected graph only an isolated source reaches the
  // restart-to-source branch, and its vector is empty either way. Raw CSR
  // rows need not be symmetric, so here every third user is a sink (an
  // empty row) that others list as a friend: pushes reach the sinks and
  // their residual returns to the source mid-computation.
  constexpr UserId kUsers = 300;
  Rng rng(15);
  std::vector<uint64_t> offsets = {0};
  std::vector<UserId> neighbors;
  for (UserId u = 0; u < kUsers; ++u) {
    if (u % 3 != 0) {
      std::vector<UserId> row;
      for (int i = 0; i < 5; ++i) {
        const UserId v = static_cast<UserId>(rng.UniformIndex(kUsers));
        if (v != u) row.push_back(v);
      }
      std::sort(row.begin(), row.end());
      row.erase(std::unique(row.begin(), row.end()), row.end());
      neighbors.insert(neighbors.end(), row.begin(), row.end());
    }
    offsets.push_back(neighbors.size());
  }
  ExpectTwinOnEverySource(SocialGraph(std::move(offsets), std::move(neighbors)));
}

TEST(PprPushTwinTest, OverlaidGraphMatchesReference) {
  const SocialGraph base = PowerLawGraph(400, 10);
  DeltaOverlayGraph delta(base);
  Rng rng(11);
  // Random edge flips, then strip user 5 of every friend so the overlay
  // also holds an empty (degree-0) row.
  for (size_t i = 0; i < 200; ++i) {
    const UserId u = static_cast<UserId>(rng.UniformIndex(base.num_users()));
    const UserId v = static_cast<UserId>(rng.UniformIndex(base.num_users()));
    if (u == v) continue;
    const bool insert = !delta.Compose().HasEdge(u, v);
    delta.ApplyHalf(u, v, insert);
    delta.ApplyHalf(v, u, insert);
  }
  const SocialGraph stripped = delta.Compose();
  for (const UserId v : std::vector<UserId>(stripped.Friends(5).begin(),
                                            stripped.Friends(5).end())) {
    delta.ApplyHalf(5, v, false);
    delta.ApplyHalf(v, 5, false);
  }
  const SocialGraph graph = delta.Compose();
  ASSERT_TRUE(graph.has_overlay());
  ASSERT_EQ(graph.Degree(5), 0u);
  ExpectTwinOnEverySource(graph);
}

TEST(PprPushTwinTest, ConcurrentComputesMatchSerial) {
  const SocialGraph graph = PowerLawGraph(1000, 12);
  const PprForwardPush push;
  std::vector<ProximityVector> serial;
  serial.reserve(graph.num_users());
  for (UserId source = 0; source < graph.num_users(); ++source) {
    serial.push_back(push.Compute(graph, source));
  }

  constexpr size_t kThreads = 4;
  std::vector<ProximityVector> concurrent(graph.num_users());
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t source = t; source < graph.num_users();
           source += kThreads) {
        concurrent[source] =
            push.Compute(graph, static_cast<UserId>(source));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (UserId source = 0; source < graph.num_users(); ++source) {
    ASSERT_EQ(CountDifferences(serial[source], concurrent[source],
                               graph.num_users()),
              0u)
        << "source " << source;
  }
}

TEST(PprPushTwinTest, ScratchGrowsAcrossGraphSizes) {
  const SocialGraph small = PowerLawGraph(100, 13);
  const SocialGraph large = PowerLawGraph(5000, 14);
  const PprForwardPush push;
  const ReferencePprForwardPush reference(0.15, 1e-4);
  // A new thread starts with empty scratch: the first call sizes it for
  // 100 users, the second grows it to 5,000, and the third runs a small
  // graph on scratch larger than it.
  size_t differences = 0;
  std::thread([&] {
    for (const SocialGraph* graph : {&small, &large, &small}) {
      for (const UserId source : {UserId{0}, UserId{57}, UserId{99}}) {
        differences +=
            CountDifferences(reference.Compute(*graph, source),
                             push.Compute(*graph, source), graph->num_users());
      }
    }
  }).join();
  EXPECT_EQ(differences, 0u);
}

}  // namespace
}  // namespace amici
