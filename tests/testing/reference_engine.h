// The reference the service twin suites compare against: ONE
// SocialSearchEngine over the whole corpus, with no service layer and no
// shards in between — so a one-shard service is checked against an
// independent implementation, never against itself.

#ifndef AMICI_TESTS_TESTING_REFERENCE_ENGINE_H_
#define AMICI_TESTS_TESTING_REFERENCE_ENGINE_H_

#include <memory>
#include <string>
#include <utility>

#include "core/engine.h"
#include "gtest/gtest.h"
#include "service/search_service.h"
#include "workload/dataset_generator.h"

namespace amici {

/// Builds the reference engine over `dataset` (consumed).
inline std::unique_ptr<SocialSearchEngine> BuildReferenceEngine(
    Dataset dataset, SocialSearchEngine::Options options = {}) {
  auto engine = SocialSearchEngine::Build(std::move(dataset.graph),
                                          std::move(dataset.store),
                                          std::move(options));
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(engine).value();
}

/// Answers `request` on `engine` the way its fields define it: the
/// algorithm hint and owner diversity through QueryDiverse. An unset hint
/// runs hybrid TA rather than the service's plan (PlanAlgorithm), so an
/// unhinted kAll request also checks the planned rarest-list scan
/// against TA. Deadlines are not modelled.
inline Result<SearchResponse> ReferenceSearch(SocialSearchEngine& engine,
                                              const SearchRequest& request) {
  const AlgorithmId algorithm =
      request.algorithm.value_or(AlgorithmId::kHybrid);
  Result<QueryResult> result =
      request.max_per_owner > 0
          ? engine.QueryDiverse(request.query, request.max_per_owner,
                                algorithm)
          : engine.Query(request.query, algorithm);
  if (!result.ok()) return result.status();
  SearchResponse response;
  response.items = std::move(result.value().items);
  response.stats = result.value().stats;
  response.algorithm = result.value().algorithm;
  return response;
}

/// Cross-backend top-k equality. Every exact top-k contains ALL items
/// scoring strictly above the k-th score; membership AT the k-th score
/// is algorithm-discretionary when a tie class straddles the boundary,
/// and entries whose FLOAT-rounded scores collide may order/select
/// differently (the engines rank on internal doubles, responses carry
/// floats). So: scores must match bit-for-bit at every rank, and item ids
/// must match wherever the score is unique in the list and above the
/// boundary tie class.
inline void ExpectSameResponse(const Result<SearchResponse>& expected,
                               const Result<SearchResponse>& actual,
                               const std::string& label) {
  ASSERT_EQ(expected.ok(), actual.ok())
      << label << ": " << expected.status().ToString() << " vs "
      << actual.status().ToString();
  if (!expected.ok()) {
    EXPECT_EQ(expected.status().code(), actual.status().code()) << label;
    return;
  }
  const auto& want = expected.value().items;
  const auto& got = actual.value().items;
  ASSERT_EQ(want.size(), got.size()) << label;
  const float boundary = want.empty() ? 0.0f : want.back().score;
  for (size_t i = 0; i < want.size(); ++i) {
    // Bit-identical, not merely close: same inputs, same code.
    EXPECT_EQ(want[i].score, got[i].score) << label << " rank " << i;
    const bool tied =
        (i > 0 && want[i - 1].score == want[i].score) ||
        (i + 1 < want.size() && want[i + 1].score == want[i].score);
    if (!tied && want[i].score != boundary) {
      EXPECT_EQ(want[i].item, got[i].item) << label << " rank " << i;
    }
  }
}

}  // namespace amici

#endif  // AMICI_TESTS_TESTING_REFERENCE_ENGINE_H_
