#include "proximity/proximity_model.h"

#include <bit>
#include <vector>

#include "gtest/gtest.h"
#include "util/rng.h"

namespace amici {
namespace {

TEST(ProximityVectorTest, EmptyVector) {
  const ProximityVector vector = ProximityVector::FromUnnormalized({});
  EXPECT_TRUE(vector.empty());
  EXPECT_EQ(vector.size(), 0u);
  EXPECT_EQ(vector.MaxScore(), 0.0f);
  EXPECT_EQ(vector.Proximity(7), 0.0f);
}

TEST(ProximityVectorTest, NormalizesMaxToOne) {
  const ProximityVector vector = ProximityVector::FromUnnormalized(
      {{1, 0.2f}, {2, 0.4f}, {3, 0.1f}});
  EXPECT_FLOAT_EQ(vector.MaxScore(), 1.0f);
  EXPECT_FLOAT_EQ(vector.Proximity(2), 1.0f);
  EXPECT_FLOAT_EQ(vector.Proximity(1), 0.5f);
  EXPECT_FLOAT_EQ(vector.Proximity(3), 0.25f);
}

TEST(ProximityVectorTest, RankedIsDescendingWithIdTieBreak) {
  const ProximityVector vector = ProximityVector::FromUnnormalized(
      {{5, 0.3f}, {1, 0.3f}, {9, 0.6f}, {2, 0.1f}});
  const auto& ranked = vector.ranked();
  ASSERT_EQ(ranked.size(), 4u);
  EXPECT_EQ(ranked[0].user, 9u);
  EXPECT_EQ(ranked[1].user, 1u);  // ties by ascending id
  EXPECT_EQ(ranked[2].user, 5u);
  EXPECT_EQ(ranked[3].user, 2u);
  for (size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_GE(ranked[i - 1].score, ranked[i].score);
  }
}

TEST(ProximityVectorTest, DropsNonPositiveScores) {
  const ProximityVector vector = ProximityVector::FromUnnormalized(
      {{1, 0.0f}, {2, -0.5f}, {3, 0.25f}});
  EXPECT_EQ(vector.size(), 1u);
  EXPECT_EQ(vector.Proximity(1), 0.0f);
  EXPECT_EQ(vector.Proximity(2), 0.0f);
  EXPECT_FLOAT_EQ(vector.Proximity(3), 1.0f);
}

TEST(ProximityVectorTest, LookupMatchesRanked) {
  const ProximityVector vector = ProximityVector::FromUnnormalized(
      {{10, 1.0f}, {20, 2.0f}, {30, 3.0f}});
  for (const auto& entry : vector.ranked()) {
    EXPECT_FLOAT_EQ(vector.Proximity(entry.user), entry.score);
  }
}

// Entries for `users`, with distinct scores so the ranking is total.
std::vector<ProximityEntry> EntriesFor(const std::vector<UserId>& users) {
  std::vector<ProximityEntry> entries;
  entries.reserve(users.size());
  for (size_t i = 0; i < users.size(); ++i) {
    entries.push_back({users[i], 1.0f / static_cast<float>(i + 1)});
  }
  return entries;
}

// Every ranked entry is found by Proximity() with its exact score.
void ExpectLookupMatchesRanked(const ProximityVector& vector) {
  for (const auto& entry : vector.ranked()) {
    EXPECT_EQ(vector.Proximity(entry.user), entry.score) << entry.user;
  }
}

TEST(ProximityVectorTest, AbsentIdsReturnZero) {
  std::vector<UserId> users;
  for (UserId u = 0; u < 400; u += 2) users.push_back(u);
  const ProximityVector vector =
      ProximityVector::FromUnnormalized(EntriesFor(users));
  ExpectLookupMatchesRanked(vector);
  for (UserId u = 1; u < 400; u += 2) EXPECT_EQ(vector.Proximity(u), 0.0f);
  for (UserId u = 400; u < 5000; ++u) EXPECT_EQ(vector.Proximity(u), 0.0f);
}

TEST(ProximityVectorTest, IdsCollidingOnOneSlotAreAllFound) {
  // 64 entries fill a 128-slot table. Every id starts its probe at the
  // last slot, so the chain runs 64 slots long and wraps past the end.
  constexpr size_t kEntries = 64;
  constexpr size_t kSlots = 128;
  std::vector<UserId> colliding;
  std::vector<UserId> absent_colliding;
  for (UserId u = 0; absent_colliding.size() < 16; ++u) {
    if (ProximityVector::HomeSlot(u, kSlots) != kSlots - 1) continue;
    (colliding.size() < kEntries ? colliding : absent_colliding).push_back(u);
  }
  const ProximityVector vector =
      ProximityVector::FromUnnormalized(EntriesFor(colliding));
  ASSERT_EQ(vector.num_slots(), kSlots);
  ExpectLookupMatchesRanked(vector);
  for (const UserId u : absent_colliding) {
    EXPECT_EQ(vector.Proximity(u), 0.0f) << u;
  }
}

TEST(ProximityVectorTest, LargestValidIdIsFound) {
  const UserId largest = kInvalidUserId - 1;
  const ProximityVector vector = ProximityVector::FromUnnormalized(
      {{largest, 0.5f}, {0, 1.0f}, {largest - 1, 0.25f}});
  EXPECT_EQ(vector.Proximity(largest), 0.5f);
  EXPECT_EQ(vector.Proximity(largest - 1), 0.25f);
  EXPECT_EQ(vector.Proximity(0), 1.0f);
  EXPECT_EQ(vector.Proximity(largest - 2), 0.0f);
  EXPECT_EQ(vector.Proximity(kInvalidUserId), 0.0f);
}

TEST(ProximityVectorTest, InvalidIdReturnsZero) {
  EXPECT_EQ(ProximityVector().Proximity(kInvalidUserId), 0.0f);
  for (const size_t n : {1u, 2u, 3u, 64u, 100u}) {
    std::vector<UserId> users;
    for (UserId u = 0; u < n; ++u) users.push_back(u * 7);
    const ProximityVector vector =
        ProximityVector::FromUnnormalized(EntriesFor(users));
    EXPECT_EQ(vector.Proximity(kInvalidUserId), 0.0f) << n;
  }
}

TEST(ProximityVectorTest, SizesAroundPowersOfTwo) {
  std::vector<size_t> sizes = {1, 2, 3};
  for (size_t p = 4; p <= 4096; p *= 2) {
    sizes.insert(sizes.end(), {p - 1, p, p + 1});
  }
  Rng rng(5);
  for (const size_t n : sizes) {
    // Distinct random ids over a range ten times the size.
    const UserId range = static_cast<UserId>(10 * n + 10);
    std::vector<bool> present(range, false);
    std::vector<UserId> users;
    while (users.size() < n) {
      const UserId u = static_cast<UserId>(rng.UniformIndex(range));
      if (present[u]) continue;
      present[u] = true;
      users.push_back(u);
    }
    const ProximityVector vector =
        ProximityVector::FromUnnormalized(EntriesFor(users));
    ASSERT_EQ(vector.size(), n);
    // Power-of-two table, at most half full.
    EXPECT_TRUE(std::has_single_bit(vector.num_slots())) << n;
    EXPECT_GE(vector.num_slots(), 2 * n) << n;
    EXPECT_LT(vector.num_slots(), 4 * n) << n;
    ExpectLookupMatchesRanked(vector);
    for (UserId u = 0; u < range; ++u) {
      if (!present[u]) {
        ASSERT_EQ(vector.Proximity(u), 0.0f) << "size " << n << ", id " << u;
      }
    }
  }
}

}  // namespace
}  // namespace amici
