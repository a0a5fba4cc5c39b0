// SearchRequest::timeout_ms on the sharded backend: the fan-out loop
// checks the deadline between per-shard completions and returns a PARTIAL
// response (the exact merge of the shards that completed in time) instead
// of waiting for stragglers and reporting the overrun post-hoc.
//
// Determinism: a proximity model that sleeps makes every shard's first
// query for a user predictably slow, so a small deadline reliably expires
// mid-fan-out — no timing luck involved.

#include <chrono>
#include <limits>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "proximity/common_neighbors.h"
#include "service/local_search_service.h"
#include "service/sharded_search_service.h"
#include "workload/dataset_generator.h"

namespace amici {
namespace {

/// Delegates to a real model after a fixed nap — the "slow shard" fault
/// injection for deadline tests.
class SleepyProximityModel final : public ProximityModel {
 public:
  SleepyProximityModel(std::shared_ptr<const ProximityModel> inner,
                       std::chrono::milliseconds nap)
      : inner_(std::move(inner)), nap_(nap) {}

  std::string_view name() const override { return "sleepy"; }

  ProximityVector Compute(const SocialGraph& graph,
                          UserId source) const override {
    std::this_thread::sleep_for(nap_);
    return inner_->Compute(graph, source);
  }

 private:
  std::shared_ptr<const ProximityModel> inner_;
  std::chrono::milliseconds nap_;
};

std::unique_ptr<ShardedSearchService> BuildSleepyService(
    std::chrono::milliseconds nap) {
  DatasetConfig config = SmallDataset();
  config.num_users = 200;
  config.num_tags = 80;
  config.seed = 5;
  Dataset dataset = GenerateDataset(config).value();
  ShardedSearchService::Options options;
  options.num_shards = 3;
  options.engine.proximity_model = std::make_shared<SleepyProximityModel>(
      std::make_shared<CommonNeighborsProximity>(), nap);
  return ShardedSearchService::Build(std::move(dataset.graph),
                                     std::move(dataset.store),
                                     std::move(options))
      .value();
}

SearchRequest TestRequest(UserId user, double timeout_ms) {
  SearchRequest request;
  request.query.user = user;
  request.query.tags = {3};
  request.query.k = 10;
  request.query.alpha = 0.5;
  request.timeout_ms = timeout_ms;
  return request;
}

TEST(ShardedDeadlineTest, ExpiredDeadlineReturnsPartialResponse) {
  auto service = BuildSleepyService(std::chrono::milliseconds(250));

  // Every shard needs ~250ms (proximity cache miss); 30ms cannot cover
  // the fan-out, so the request must come back early and partial.
  const auto response = service->Search(TestRequest(/*user=*/7,
                                                   /*timeout_ms=*/30.0));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response.value().deadline_exceeded);
  EXPECT_LT(response.value().shards_touched, service->num_shards());
  // The response came back near the deadline, not after ~750ms of
  // stragglers (generous bound: scheduling noise, sanitizers).
  EXPECT_LT(response.value().elapsed_ms, 200.0);

  // The service is fully functional afterwards: the same query WITHOUT a
  // deadline completes on every shard (stragglers of the abandoned row
  // have warmed the caches by then or simply finish harmlessly).
  const auto full = service->Search(TestRequest(/*user=*/7,
                                                /*timeout_ms=*/0.0));
  ASSERT_TRUE(full.ok());
  EXPECT_FALSE(full.value().deadline_exceeded);
  EXPECT_EQ(full.value().shards_touched, service->num_shards());
  // The partial items it DID return are a prefix-consistent subset: all
  // scores it reported appear in the full answer at the same or better
  // rank order.
  const auto& partial_items = response.value().items;
  const auto& full_items = full.value().items;
  for (size_t i = 0, j = 0; i < partial_items.size(); ++i) {
    bool found = false;
    for (; j < full_items.size(); ++j) {
      if (full_items[j].item == partial_items[i].item &&
          full_items[j].score == partial_items[i].score) {
        found = true;
        ++j;
        break;
      }
    }
    EXPECT_TRUE(found) << "partial rank " << i
                       << " not found in order in the full response";
  }
}

TEST(ShardedDeadlineTest, GenerousDeadlineCompletesEveryShard) {
  auto service = BuildSleepyService(std::chrono::milliseconds(1));
  const auto response = service->Search(TestRequest(/*user=*/11,
                                                    /*timeout_ms=*/60000.0));
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response.value().deadline_exceeded);
  EXPECT_EQ(response.value().shards_touched, service->num_shards());
}

TEST(ShardedDeadlineTest, BatchMixesDeadlinedAndUnboundedRequests) {
  auto service = BuildSleepyService(std::chrono::milliseconds(150));
  std::vector<SearchRequest> requests;
  requests.push_back(TestRequest(/*user=*/20, /*timeout_ms=*/20.0));
  requests.push_back(TestRequest(/*user=*/21, /*timeout_ms=*/0.0));
  const auto responses = service->SearchBatch(requests);
  ASSERT_EQ(responses.size(), 2u);
  ASSERT_TRUE(responses[0].ok());
  ASSERT_TRUE(responses[1].ok());
  // The deadlined slot is partial; the unbounded slot waited for every
  // shard regardless of its neighbour's deadline.
  EXPECT_TRUE(responses[0].value().deadline_exceeded);
  EXPECT_EQ(responses[1].value().shards_touched, service->num_shards());
  EXPECT_FALSE(responses[1].value().deadline_exceeded);
}

TEST(ShardedDeadlineTest, BatchMixesZeroTightAndGenerousDeadlines) {
  auto service = BuildSleepyService(std::chrono::milliseconds(150));
  std::vector<SearchRequest> requests;
  requests.push_back(TestRequest(/*user=*/30, /*timeout_ms=*/0.0));
  requests.push_back(TestRequest(/*user=*/31, /*timeout_ms=*/20.0));
  requests.push_back(TestRequest(/*user=*/32, /*timeout_ms=*/60000.0));
  const auto responses = service->SearchBatch(requests);
  ASSERT_EQ(responses.size(), 3u);
  for (const auto& response : responses) {
    ASSERT_TRUE(response.ok()) << response.status().ToString();
  }
  // Each row enforced ITS OWN deadline: the unbounded and the generous
  // rows completed every shard, the tight row came back partial — with
  // its abandoned shards counted, not silently dropped.
  EXPECT_FALSE(responses[0].value().deadline_exceeded);
  EXPECT_EQ(responses[0].value().shards_touched, service->num_shards());
  // The tight row overran its own 20ms budget (every shard's first
  // proximity computation naps 150ms) and says so; whether its shards
  // were abandoned at the barrier, truncated mid-algorithm, or merely
  // late depends on scheduling, but the accounting always balances.
  EXPECT_TRUE(responses[1].value().deadline_exceeded);
  EXPECT_EQ(responses[1].value().shards_touched +
                responses[1].value().shards_abandoned,
            service->num_shards());
  EXPECT_FALSE(responses[2].value().deadline_exceeded);
  EXPECT_EQ(responses[2].value().shards_touched, service->num_shards());
}

// --- Mid-algorithm cancellation (inside one shard) ----------------------

std::unique_ptr<LocalSearchService> BuildBigLocalService(
    std::chrono::milliseconds nap) {
  // Big enough that an untimed query decodes MANY posting-list blocks —
  // the truncation twin below needs headroom to be strictly cheaper.
  DatasetConfig config = SmallDataset();
  config.num_users = 2000;
  config.num_tags = 50;
  config.seed = 13;
  Dataset dataset = GenerateDataset(config).value();
  LocalSearchService::Options options;
  options.engine.proximity_model = std::make_shared<SleepyProximityModel>(
      std::make_shared<CommonNeighborsProximity>(), nap);
  return LocalSearchService::Build(std::move(dataset.graph),
                                   std::move(dataset.store),
                                   std::move(options))
      .value();
}

SearchRequest CommonTagRequest(double timeout_ms) {
  SearchRequest request;
  request.query.user = 42;
  request.query.tags = {0};  // Zipf head: the longest posting list
  request.query.k = 10;
  request.query.alpha = 0.5;
  request.algorithm = AlgorithmId::kMergeScan;
  request.timeout_ms = timeout_ms;
  return request;
}

TEST(MidShardCancellationTest, ExpiredDeadlineStopsInsideTheAlgorithm) {
  // The sleepy nap sits in the proximity model — INSIDE the engine's
  // query path, before the algorithm runs — so a deadline shorter than
  // the nap is deterministically expired when the algorithm starts: the
  // very first cooperative probe fires and the scan stops mid-run.
  auto service = BuildBigLocalService(std::chrono::milliseconds(30));

  // Tight twin FIRST: its proximity cache miss naps 30ms, so the 5ms
  // token is deterministically expired when the scan starts. (The other
  // order would warm the cache and skip the nap.)
  const auto tight = service->Search(CommonTagRequest(/*timeout_ms=*/5.0));
  ASSERT_TRUE(tight.ok()) << tight.status().ToString();
  EXPECT_TRUE(tight.value().stats.truncated);
  EXPECT_TRUE(tight.value().deadline_exceeded);

  const auto full = service->Search(CommonTagRequest(/*timeout_ms=*/0.0));
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ASSERT_FALSE(full.value().stats.truncated);

  // The acceptance bar for "stops mid-shard": strictly less decode work
  // than the no-deadline twin, not a post-hoc overrun report.
  EXPECT_LT(tight.value().stats.aggregation.blocks_decoded,
            full.value().stats.aggregation.blocks_decoded);
  EXPECT_LT(tight.value().stats.items_considered,
            full.value().stats.items_considered);
}

// --- Invariance: a token that never fires changes nothing ---------------

void ExpectBitIdentical(const SearchResponse& want,
                        const SearchResponse& got) {
  ASSERT_EQ(want.items.size(), got.items.size());
  for (size_t i = 0; i < want.items.size(); ++i) {
    EXPECT_EQ(want.items[i].item, got.items[i].item);
    EXPECT_EQ(want.items[i].score, got.items[i].score);  // bit-exact
  }
  EXPECT_EQ(want.algorithm, got.algorithm);
  // Same WORK, not just the same answer: cancellation must be strictly
  // an early-exit, invisible until the first positive expiry.
  EXPECT_EQ(want.stats.items_considered, got.stats.items_considered);
  EXPECT_EQ(want.stats.tail_items_scanned, got.stats.tail_items_scanned);
  EXPECT_EQ(want.stats.aggregation.sorted_accesses,
            got.stats.aggregation.sorted_accesses);
  EXPECT_EQ(want.stats.aggregation.random_accesses,
            got.stats.aggregation.random_accesses);
  EXPECT_EQ(want.stats.aggregation.blocks_decoded,
            got.stats.aggregation.blocks_decoded);
  EXPECT_EQ(want.stats.aggregation.blocks_skipped,
            got.stats.aggregation.blocks_skipped);
  EXPECT_FALSE(got.stats.truncated);
  EXPECT_FALSE(got.deadline_exceeded);
}

TEST(DeadlineInvarianceTest, ArmedButUnexpiredTokenIsBitIdentical) {
  auto service = BuildSleepyService(std::chrono::milliseconds(0));
  std::mt19937 rng(77);
  std::uniform_int_distribution<UserId> user_dist(0, 199);
  std::uniform_int_distribution<TagId> tag_dist(0, 79);
  std::uniform_int_distribution<size_t> k_dist(5, 20);

  for (int round = 0; round < 25; ++round) {
    SearchRequest request;
    request.query.user = user_dist(rng);
    request.query.tags = {tag_dist(rng)};
    request.query.k = k_dist(rng);
    request.query.alpha = 0.5;
    if (round % 3 == 0) request.max_per_owner = 2;

    // Warm the proximity cache so the twins do identical work (the
    // first-touch computation is a per-user one-off, not token-related).
    ASSERT_TRUE(service->Search(request).ok());

    const auto untimed = service->Search(request);
    SearchRequest timed = request;
    timed.timeout_ms = 60000.0;  // armed, but can never fire
    const auto generous = service->Search(timed);
    ASSERT_TRUE(untimed.ok());
    ASSERT_TRUE(generous.ok());
    ExpectBitIdentical(untimed.value(), generous.value());
  }
}

// timeout_ms is untrusted input: NaN, infinities and huge values must be
// refused at the QoS edge, before anything converts them to a clock
// duration (that conversion is undefined behaviour for such values).
constexpr double kUnrepresentableTimeouts[] = {
    std::numeric_limits<double>::quiet_NaN(),
    std::numeric_limits<double>::infinity(), 1e300};

TEST(DeadlineValidationTest, UnrepresentableTimeoutIsInvalidArgument) {
  auto service = BuildSleepyService(std::chrono::milliseconds(0));
  for (const double timeout_ms : kUnrepresentableTimeouts) {
    SCOPED_TRACE(timeout_ms);
    const auto response = service->Search(TestRequest(/*user=*/7, timeout_ms));
    ASSERT_FALSE(response.ok());
    EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
  }
  // Rejected before admission: nothing was counted as admitted.
  EXPECT_EQ(service->qos_counters().admitted, 0u);

  // <= 0 keeps meaning "no deadline", -inf included.
  for (const double timeout_ms :
       {0.0, -5.0, -std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(timeout_ms);
    const auto response = service->Search(TestRequest(/*user=*/7, timeout_ms));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_FALSE(response.value().deadline_exceeded);
    EXPECT_EQ(response.value().shards_touched, 3u);
  }
}

TEST(DeadlineValidationTest, BatchRejectsOnlyTheUnrepresentableRows) {
  auto service = BuildSleepyService(std::chrono::milliseconds(0));
  for (const bool admission : {false, true}) {
    SCOPED_TRACE(admission ? "admission control" : "pass-through");
    if (admission) service->EnableAdmissionControl({});
    std::vector<SearchRequest> requests;
    requests.push_back(TestRequest(/*user=*/40, /*timeout_ms=*/0.0));
    for (const double timeout_ms : kUnrepresentableTimeouts) {
      requests.push_back(TestRequest(/*user=*/41, timeout_ms));
    }
    requests.push_back(TestRequest(/*user=*/42, /*timeout_ms=*/60000.0));

    const auto responses = service->SearchBatch(requests);
    ASSERT_EQ(responses.size(), requests.size());
    for (size_t i = 0; i < responses.size(); ++i) {
      SCOPED_TRACE(i);
      if (i == 0 || i + 1 == responses.size()) {
        ASSERT_TRUE(responses[i].ok()) << responses[i].status().ToString();
        EXPECT_FALSE(responses[i].value().deadline_exceeded);
        EXPECT_EQ(responses[i].value().shards_touched, 3u);
      } else {
        ASSERT_FALSE(responses[i].ok());
        EXPECT_EQ(responses[i].status().code(), StatusCode::kInvalidArgument);
      }
    }
  }
  // Only the valid rows of both batches were admitted.
  EXPECT_EQ(service->qos_counters().admitted, 4u);
}

}  // namespace
}  // namespace amici
