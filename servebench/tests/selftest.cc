// Self-tests for servebench's own arithmetic: which tail percentile a
// sample supports, the choice of the least-stolen windows, the ratio
// bases, span self time, the reassembly of
// sampled requests from spans, and the top-k comparison of the
// correctness gate. Exits non-zero on the first failed expectation.
//
//   ./servebench_selftest      (or: python3 servebench/run.py --selftest)

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "check.h"
#include "loadgen.h"
#include "stats.h"
#include "trace.h"

namespace servebench {
namespace {

int failures = 0;

#define EXPECT(condition)                                              \
  do {                                                                 \
    if (!(condition)) {                                                \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #condition);                                        \
      ++failures;                                                      \
    }                                                                  \
  } while (0)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void TestPercentileChoice() {
  // p99 of 1,000 samples is the 990th: exactly 10 samples lie beyond.
  EXPECT(NearestRank(1000, kP99) == 990);
  EXPECT(SamplesBeyond(1000, kP99) == 10);
  EXPECT(HighestSupportedPercentile(1000) == kP99);
  // One sample short of that, p99 has only 9 beyond: fall back to p90.
  EXPECT(SamplesBeyond(999, kP99) == 9);
  EXPECT(HighestSupportedPercentile(999) == kP90);
  EXPECT(HighestSupportedPercentile(10000) == kP999);
  EXPECT(HighestSupportedPercentile(100000) == kP9999);
  EXPECT(HighestSupportedPercentile(100) == kP90);
  EXPECT(HighestSupportedPercentile(20) == kP50);
  EXPECT(HighestSupportedPercentile(19) == 0);
  EXPECT(HighestSupportedPercentile(0) == 0);

  std::vector<double> values;
  for (int i = 100; i >= 1; --i) values.push_back(i);
  EXPECT(Percentile(&values, kP50) == 50);
  EXPECT(Percentile(&values, kP90) == 90);
  EXPECT(Percentile(&values, kP99) == 99);
  std::vector<double> empty;
  EXPECT(Percentile(&empty, kP50) == 0);
  EXPECT(Median({3, 1, 2}) == 2);
  EXPECT(Mean({1, 2, 3, 6}) == 3);

  // Window 0 supports p90 (100 samples), window 1 does not (50 samples).
  std::vector<double> sample;
  std::vector<size_t> window;
  for (int i = 1; i <= 100; ++i) {
    sample.push_back(i);
    window.push_back(0);
  }
  for (int i = 1; i <= 50; ++i) {
    sample.push_back(1000 + i);
    window.push_back(1);
  }
  const std::vector<double> p90 = WindowPercentiles(sample, window, kP90);
  EXPECT(p90.size() == 1 && p90[0] == 90);
  const std::vector<double> p50 = WindowPercentiles(sample, window, kP50);
  EXPECT(p50.size() == 2 && p50[0] == 50 && p50[1] == 1025);
}

void TestStealSelection() {
  // Windows with no more steal than the one at the 25th percentile.
  EXPECT((LeastStolen({0.1, 0.0, 0.3, 0.05}) ==
          std::vector<bool>{false, true, false, false}));
  EXPECT((LeastStolen({0.2, 0.1, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}) ==
          std::vector<bool>{true, true, false, false, false, false, false,
                            false}));
  // Every window free of steal is kept, even beyond a quarter.
  EXPECT((LeastStolen({0.0, 0.0, 0.0, 0.2}) ==
          std::vector<bool>{true, true, true, false}));
  EXPECT(LeastStolen({}).empty());
  EXPECT((InKeptWindows({1, 2, 3, 4}, {0, 1, 1, 2}, {true, false, true}) ==
          std::vector<double>{1, 4}));
  EXPECT((Kept({5, 6, 7}, {true, false, true}) == std::vector<double>{5, 7}));
  EXPECT(Near(StealShare(CpuTimes{10, 1000}, CpuTimes{30, 1400}), 0.05));
  EXPECT(StealShare(CpuTimes{10, 1000}, CpuTimes{10, 1000}) == 0);
}

void TestRatioBases() {
  EXPECT(Ratio(3, 4) == 0.75);
  EXPECT(Ratio(3, 0) == 0);
  // Joins count as answered without computing.
  EXPECT(Near(HitRatio(6, 2, 2), 0.8));
  EXPECT(HitRatio(0, 0, 0) == 0);
  EXPECT(Near(BlockSkipRatio(30, 10), 0.25));
  EXPECT(BlockSkipRatio(0, 0) == 0);
  EXPECT(Near(ResultYield(10, 400), 0.025));
  EXPECT(ResultYield(0, 0) == 0);
  EXPECT(Near(CoalesceRatio(100, 25), 4.0));
  EXPECT(CoalesceRatio(0, 0) == 0);
  EXPECT(Near(OverheadFraction(5000, 4500), 0.1));
  EXPECT(OverheadFraction(0, 0) == 0);
  EXPECT(Near(ErrorRate(1, 2, 1, 400), 0.01));
  EXPECT(ErrorRate(0, 0, 0, 0) == 0);
}

void TestSelfTime() {
  const Interval parent{100, 200};
  EXPECT(SelfTime(parent, {}) == 100);
  // Disjoint children.
  EXPECT(SelfTime(parent, {{110, 130}, {150, 160}}) == 70);
  // Overlapping children are counted once.
  EXPECT(SelfTime(parent, {{110, 140}, {120, 150}}) == 60);
  // A child nested in another adds nothing.
  EXPECT(SelfTime(parent, {{110, 190}, {120, 130}}) == 20);
  // Parts outside the parent are clipped; a child wholly outside is ignored.
  EXPECT(SelfTime(parent, {{50, 120}, {180, 260}, {300, 400}}) == 60);
  // Unsorted input.
  EXPECT(CoveredLength({{150, 160}, {110, 130}}, parent) == 30);
}

void TestSampledRequests() {
  Tracer tracer(2, 16);
  SpanBuffer* a = tracer.buffer(0);
  // Request 1: proximity, one engine, then Search.
  const auto root = static_cast<int64_t>(
      a->Open(SpanName::kRequest, 1, 1, -1, 1000));
  a->Add(SpanName::kGetProximity, 0, 1, root, 1000, 3000);
  a->Add(SpanName::kEngineQuery, 0, 1, root, 3000, 7000);
  a->Add(SpanName::kSearch, 1, 1, root, 8000, 13000);
  a->Close(static_cast<size_t>(root), 14000);
  // An unsampled Search is a root of its own and is not a request.
  a->Add(SpanName::kSearch, 0, 2, -1, 20000, 21000);
  // Request 3 on another buffer: Search first, then two shards.
  SpanBuffer* b = tracer.buffer(1);
  const auto root3 = static_cast<int64_t>(
      b->Open(SpanName::kRequest, 2, 3, -1, 0));
  b->Add(SpanName::kSearch, 2, 3, root3, 0, 4000);
  b->Add(SpanName::kEngineQuery, 0, 3, root3, 4000, 6000);
  b->Add(SpanName::kEngineQuery, 1, 3, root3, 6000, 9000);
  b->Close(static_cast<size_t>(root3), 9000);

  const std::vector<Span> spans = tracer.Collect();
  EXPECT(spans.size() == 9);
  EXPECT(spans[6].parent == 5);  // rebased onto the merged list
  const std::vector<SampledRequest> requests = SampledRequests(spans);
  EXPECT(requests.size() == 2);
  if (requests.size() == 2) {
    const SampledRequest& r1 = requests[0];
    EXPECT(r1.query_class == 1);
    EXPECT(Near(r1.proximity_us, 2.0));
    EXPECT(r1.engine_us.size() == 1 && Near(r1.engine_us[0], 4.0));
    EXPECT(Near(r1.search_us, 5.0));
    EXPECT(!r1.search_first);
    // 13 us span, children cover 11 us (1-3, 3-7, 8-13).
    EXPECT(Near(r1.self_us, 2.0));
    const SampledRequest& r3 = requests[1];
    EXPECT(r3.search_first);
    EXPECT(r3.engine_us.size() == 2);
    EXPECT(Near(r3.self_us, 0.0));
  }
}

amici::ScoredItem Item(amici::ItemId id, float score) {
  return amici::ScoredItem{id, score};
}

void TestCompareTopK() {
  const std::vector<amici::ScoredItem> want = {
      Item(1, 0.9f), Item(2, 0.8f), Item(3, 0.5f), Item(4, 0.5f)};
  EXPECT(CompareTopK(want, want, 4) == TopKMatch::kIdentical);
  // Another item tied with the k-th score fills the last slot.
  EXPECT(CompareTopK({Item(1, 0.9f), Item(2, 0.8f), Item(3, 0.5f),
                      Item(9, 0.5f)},
                     want, 4) == TopKMatch::kKthTieDeparture);
  // Tied items in another order.
  EXPECT(CompareTopK({Item(1, 0.9f), Item(2, 0.8f), Item(4, 0.5f),
                      Item(3, 0.5f)},
                     want, 4) == TopKMatch::kKthTieDeparture);
  // A difference above the tie is wrong.
  EXPECT(CompareTopK({Item(1, 0.9f), Item(7, 0.8f), Item(3, 0.5f),
                      Item(4, 0.5f)},
                     want, 4) == TopKMatch::kDifferent);
  // So is any score difference, or a duplicate in the tied slots.
  EXPECT(CompareTopK({Item(1, 0.9f), Item(2, 0.8f), Item(3, 0.5f),
                      Item(4, 0.4f)},
                     want, 4) == TopKMatch::kDifferent);
  EXPECT(CompareTopK({Item(1, 0.9f), Item(2, 0.8f), Item(3, 0.5f),
                      Item(3, 0.5f)},
                     want, 4) == TopKMatch::kDifferent);
  // A short answer lists every match, so no tie may be cut.
  EXPECT(CompareTopK({Item(1, 0.9f), Item(2, 0.8f), Item(3, 0.5f),
                      Item(9, 0.5f)},
                     want, 10) == TopKMatch::kDifferent);
  EXPECT(CompareTopK({Item(1, 0.9f)}, want, 4) == TopKMatch::kDifferent);

  EXPECT(DepartsFromIdTieOrder({Item(5, 0.5f), Item(2, 0.5f)}));
  EXPECT(!DepartsFromIdTieOrder({Item(2, 0.5f), Item(5, 0.5f)}));
  EXPECT(!DepartsFromIdTieOrder({Item(5, 0.6f), Item(2, 0.5f)}));
  EXPECT(AnswerHash(want) == AnswerHash(want));
  EXPECT(AnswerHash(want) != AnswerHash({Item(1, 0.9f)}));

  amici::SearchResponse response;
  response.items = want;
  EXPECT(WellFormed(response, 10));
  EXPECT(!WellFormed(response, 3));
  response.items = {Item(1, 0.5f), Item(2, 0.9f)};
  EXPECT(!WellFormed(response, 10));
  response.items = {Item(1, 0.0f)};
  EXPECT(!WellFormed(response, 10));
  response.items = want;
  response.degraded = true;
  EXPECT(!WellFormed(response, 10));
}

}  // namespace
}  // namespace servebench

int main() {
  servebench::TestPercentileChoice();
  servebench::TestStealSelection();
  servebench::TestRatioBases();
  servebench::TestSelfTime();
  servebench::TestSampledRequests();
  servebench::TestCompareTopK();
  if (servebench::failures != 0) {
    std::fprintf(stderr, "%d expectation(s) failed\n", servebench::failures);
    return 1;
  }
  std::printf("servebench self-tests passed\n");
  return 0;
}
