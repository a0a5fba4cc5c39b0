// Micro benchmarks (google-benchmark) for the performance-critical
// primitives underneath the query algorithms: varint codecs, posting-list
// traversal, top-k heap maintenance, Zipf sampling, proximity kernels,
// and the rank-aggregation engine itself.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph_generators.h"
#include "persist/segment.h"
#include "proximity/ppr_forward_push.h"
#include "storage/posting_list.h"
#include "topk/threshold_algorithm.h"
#include "topk/topk_heap.h"
#include "util/rng.h"
#include "util/varint.h"
#include "util/zipf.h"

namespace amici {
namespace {

void BM_VarintEncode(benchmark::State& state) {
  Rng rng(1);
  std::vector<uint64_t> values(1024);
  for (auto& v : values) v = rng.NextUint64() >> rng.UniformIndex(64);
  for (auto _ : state) {
    std::string buffer;
    buffer.reserve(values.size() * 10);
    for (const uint64_t v : values) PutVarint64(v, &buffer);
    benchmark::DoNotOptimize(buffer);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(values.size()));
}
BENCHMARK(BM_VarintEncode);

void BM_VarintDecode(benchmark::State& state) {
  Rng rng(2);
  std::string buffer;
  const size_t count = 1024;
  for (size_t i = 0; i < count; ++i) {
    PutVarint64(rng.NextUint64() >> rng.UniformIndex(64), &buffer);
  }
  for (auto _ : state) {
    size_t offset = 0;
    uint64_t value = 0;
    for (size_t i = 0; i < count; ++i) {
      benchmark::DoNotOptimize(GetVarint64(buffer, &offset, &value));
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(count));
}
BENCHMARK(BM_VarintDecode);

PostingList MakeList(size_t count, bool skips) {
  Rng rng(3);
  std::vector<ScoredItem> postings;
  uint32_t doc = 0;
  for (size_t i = 0; i < count; ++i) {
    doc += 1 + static_cast<uint32_t>(rng.UniformIndex(8));
    postings.push_back({doc, static_cast<float>(rng.UniformDouble())});
  }
  PostingList::Options options;
  options.enable_skips = skips;
  return PostingList::Build(postings, options).value();
}

void BM_PostingListIterate(benchmark::State& state) {
  const PostingList list = MakeList(100000, true);
  for (auto _ : state) {
    uint64_t checksum = 0;
    for (auto it = list.NewIterator(); it.Valid(); it.Next()) {
      checksum += it.Doc();
    }
    benchmark::DoNotOptimize(checksum);
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_PostingListIterate);

void BM_PostingListSeek(benchmark::State& state) {
  const bool skips = state.range(0) != 0;
  const PostingList list = MakeList(100000, skips);
  Rng rng(4);
  for (auto _ : state) {
    auto it = list.NewIterator();
    // Strided forward seeks across the whole list.
    for (ItemId target = 1000; it.Valid() && target < 450000;
         target += 9000) {
      it.SeekGeq(target);
    }
    benchmark::DoNotOptimize(it.Valid());
  }
}
BENCHMARK(BM_PostingListSeek)->Arg(1)->Arg(0);

// --- Block decode kernels ------------------------------------------------
// Three rungs of the same job — turn one block-sized delta-varint stream
// into absolute doc ids — so the ladder isolates each win:
//   SeedScalar:  the pre-block-decoder iterator loop (interleaved
//                impact bytes, one GetVarint32 per posting, push_back
//                into freshly cleared vectors);
//   Scalar:      DecodeDeltaBlockScalar into a reused fixed buffer
//                (buffer reuse + split layout, no SIMD);
//   Simd:        DecodeDeltaBlock, whatever kernel this CPU dispatches
//                to (label says which).

constexpr size_t kDecodeCount = 1024;

std::string MakeGapStream(bool interleave_impacts) {
  Rng rng(10);
  std::string stream;
  for (size_t i = 0; i < kDecodeCount; ++i) {
    // Dense-posting gap profile: single-byte varints, like MakeList's.
    PutVarint32(1 + static_cast<uint32_t>(rng.UniformIndex(8)), &stream);
    if (interleave_impacts) {
      stream.push_back(static_cast<char>(rng.UniformIndex(256)));
    }
  }
  return stream;
}

void BM_BlockDecodeSeedScalar(benchmark::State& state) {
  const std::string stream = MakeGapStream(true);
  std::vector<ItemId> docs;
  std::vector<uint8_t> impacts;
  for (auto _ : state) {
    docs.clear();
    impacts.clear();
    size_t offset = 0;
    uint32_t doc = 0;
    for (size_t i = 0; i < kDecodeCount; ++i) {
      uint32_t delta = 0;
      if (!GetVarint32(stream, &offset, &delta)) {
        state.SkipWithError("corrupt stream");
        return;
      }
      doc = i == 0 ? delta : doc + delta;
      docs.push_back(doc);
      impacts.push_back(static_cast<uint8_t>(stream[offset]));
      ++offset;
    }
    benchmark::DoNotOptimize(docs.data());
    benchmark::DoNotOptimize(impacts.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kDecodeCount));
}
BENCHMARK(BM_BlockDecodeSeedScalar);

void BM_BlockDeltaDecodeScalar(benchmark::State& state) {
  const std::string stream = MakeGapStream(false);
  std::vector<uint32_t> out(kDecodeCount);
  for (auto _ : state) {
    size_t offset = 0;
    if (!DecodeDeltaBlockScalar(stream.data(), stream.size(), &offset,
                                kDecodeCount, out.data())) {
      state.SkipWithError("corrupt stream");
      return;
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kDecodeCount));
}
BENCHMARK(BM_BlockDeltaDecodeScalar);

void BM_BlockDeltaDecodeSimd(benchmark::State& state) {
  const std::string stream = MakeGapStream(false);
  std::vector<uint32_t> out(kDecodeCount);
  for (auto _ : state) {
    size_t offset = 0;
    if (!DecodeDeltaBlock(stream.data(), stream.size(), &offset,
                          kDecodeCount, out.data())) {
      state.SkipWithError("corrupt stream");
      return;
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kDecodeCount));
  state.SetLabel(DeltaBlockKernelName());
}
BENCHMARK(BM_BlockDeltaDecodeSimd);

// Full-list traversal with the block-max skip table: Arg(1) prunes
// against a floor only the highest-impact blocks clear; Arg(0) decodes
// everything (threshold below every bound). The counters report how much
// of the list the pruned run never touched.
void BM_BlockMaxTraversal(benchmark::State& state) {
  const bool prune = state.range(0) != 0;
  const PostingList list = MakeList(100000, true);
  const double threshold =
      prune ? 0.999 * static_cast<double>(list.max_score()) : -1.0;
  uint64_t decoded = 0;
  uint64_t skipped = 0;
  for (auto _ : state) {
    auto it = list.NewIterator();
    uint64_t checksum = 0;
    while (it.Valid()) {
      if (!it.SkipToBlockWithBoundAbove(threshold)) break;
      checksum += it.Doc();
      it.Next();
    }
    benchmark::DoNotOptimize(checksum);
    decoded = it.blocks_decoded();
    skipped = it.blocks_skipped();
  }
  state.counters["blocks_decoded"] = static_cast<double>(decoded);
  state.counters["blocks_skipped"] = static_cast<double>(skipped);
}
BENCHMARK(BM_BlockMaxTraversal)->Arg(1)->Arg(0);

void BM_TopKHeapPush(benchmark::State& state) {
  Rng rng(5);
  std::vector<double> scores(100000);
  for (auto& s : scores) s = rng.UniformDouble();
  for (auto _ : state) {
    TopKHeap heap(10);
    for (size_t i = 0; i < scores.size(); ++i) {
      heap.Push(static_cast<ItemId>(i), scores[i]);
    }
    benchmark::DoNotOptimize(heap.KthScore());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(scores.size()));
}
BENCHMARK(BM_TopKHeapPush);

void BM_ZipfSample(benchmark::State& state) {
  Rng rng(6);
  const ZipfSampler zipf(1000000, 1.1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(&rng));
  }
}
BENCHMARK(BM_ZipfSample);

void BM_PprForwardPush(benchmark::State& state) {
  Rng rng(7);
  const SocialGraph graph = GenerateBarabasiAlbert(20000, 6, &rng);
  const PprForwardPush push(0.15, 1e-4);
  UserId source = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(push.Compute(graph, source));
    source = (source + 97) % static_cast<UserId>(graph.num_users());
  }
}
BENCHMARK(BM_PprForwardPush);

// ProximityVector::Proximity, the random-access path Scorer::SocialScore
// takes per candidate: a 200-entry vector over 20k users, probed with
// alternating hits and misses in random order.
void BM_ProximityLookup(benchmark::State& state) {
  constexpr UserId kUsers = 20000;
  constexpr size_t kEntries = 200;
  Rng rng(11);
  std::vector<ProximityEntry> entries;
  std::vector<bool> present(kUsers, false);
  while (entries.size() < kEntries) {
    const UserId user = static_cast<UserId>(rng.UniformIndex(kUsers));
    if (present[user]) continue;
    present[user] = true;
    entries.push_back({user, static_cast<float>(rng.UniformDouble()) + 0.01f});
  }
  const ProximityVector vector =
      ProximityVector::FromUnnormalized(std::move(entries));
  std::vector<UserId> probes;
  while (probes.size() < 4096) {
    const UserId user = static_cast<UserId>(rng.UniformIndex(kUsers));
    // Even slots are hits, odd slots misses.
    if (present[user] == (probes.size() % 2 == 0)) probes.push_back(user);
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(vector.Proximity(probes[i]));
    i = (i + 1) & (probes.size() - 1);
  }
}
BENCHMARK(BM_ProximityLookup);

class VectorSource final : public SortedSource {
 public:
  explicit VectorSource(std::vector<ScoredItem> entries)
      : entries_(std::move(entries)) {}
  bool Valid() const override { return pos_ < entries_.size(); }
  ScoredItem Current() const override { return entries_[pos_]; }
  void Next() override { ++pos_; }
  void Reset() { pos_ = 0; }

 private:
  std::vector<ScoredItem> entries_;
  size_t pos_ = 0;
};

void BM_MappedPostingRead(benchmark::State& state) {
  // Serialize a batch of lists into one postings segment once; measure a
  // zero-copy DeserializeView straight off the mapping (hot page cache) —
  // the snapshot restart path's per-list cost.
  const std::string path = "/tmp/amici_micro_postings.seg";
  constexpr size_t kLists = 50;
  std::vector<size_t> offsets;
  {
    std::string payload;
    for (size_t i = 0; i < kLists; ++i) {
      offsets.push_back(payload.size());
      MakeList(2000, true).SerializeTo(&payload);
    }
    if (!persist::WriteSegmentFile(path, persist::SegmentKind::kPostings,
                                   payload)
             .ok()) {
      state.SkipWithError("segment write failed");
      return;
    }
  }
  auto segment =
      persist::MappedSegment::Open(path, persist::SegmentKind::kPostings);
  if (!segment.ok()) {
    state.SkipWithError("segment open failed");
    return;
  }
  const std::string_view payload = segment.value()->payload();
  size_t index = 0;
  for (auto _ : state) {
    size_t offset = offsets[index];
    auto list = PostingList::DeserializeView(payload, &offset,
                                             segment.value()->file());
    if (!list.ok()) {
      state.SkipWithError("mapped list parse failed");
      return;
    }
    benchmark::DoNotOptimize(list.value().size());
    index = (index + 7) % kLists;
  }
  std::remove(path.c_str());
}
BENCHMARK(BM_MappedPostingRead);

void BM_ThresholdAlgorithm(benchmark::State& state) {
  Rng rng(8);
  const size_t num_lists = 3;
  std::vector<std::vector<ScoredItem>> lists(num_lists);
  std::vector<double> totals(50000, 0.0);
  for (auto& list : lists) {
    for (ItemId item = 0; item < 50000; ++item) {
      if (!rng.Bernoulli(0.3)) continue;
      const float partial = static_cast<float>(rng.UniformDouble());
      list.push_back({item, partial});
      totals[item] += partial;
    }
    std::sort(list.begin(), list.end(),
              [](const ScoredItem& a, const ScoredItem& b) {
                return a.score > b.score;
              });
  }
  auto score_of = [&totals](ItemId item) { return totals[item]; };
  for (auto _ : state) {
    std::vector<std::unique_ptr<VectorSource>> owned;
    std::vector<SortedSource*> sources;
    for (const auto& list : lists) {
      owned.push_back(std::make_unique<VectorSource>(list));
      sources.push_back(owned.back().get());
    }
    auto result = RunThresholdAlgorithm(
        std::span<SortedSource* const>(sources.data(), sources.size()),
        score_of, 10, MaxBoundPull, nullptr, nullptr);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_ThresholdAlgorithm);

}  // namespace
}  // namespace amici

BENCHMARK_MAIN();
