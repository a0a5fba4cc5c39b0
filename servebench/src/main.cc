// servebench: the amici serving benchmark. One run measures one workload
// through the public SearchService API and prints, as its last stdout
// line, {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics untraced (--trace 0) or the per-layer metrics from a traced run
// (--trace 1). See servebench/README.md for the workloads and metrics.
//
//   servebench --workload NAME --seed N --seconds S --trace 0|1
//              --work-dir DIR [--git-sha SHA] [--src-digest HEX]

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "check.h"
#include "inputs.h"
#include "loadgen.h"
#include "service/local_search_service.h"
#include "service/sharded_search_service.h"
#include "stats.h"
#include "trace.h"
#include "workload/dataset_config.h"
#include "writer.h"

namespace servebench {
namespace {

using amici::SearchRequest;
using amici::SearchResponse;
using amici::SearchService;

// --- Workloads -----------------------------------------------------------

struct WorkloadSpec {
  const char* name;
  /// 1 = LocalSearchService; otherwise ShardedSearchService over this
  /// many shards.
  size_t shards;
  QueryMix mix;
  /// Fixed open-loop arrival rate: about a third of the workload's
  /// closed-loop throughput when the benchmark was defined (README.md says
  /// why not half). Never scaled from a measurement taken in the run.
  double open_rate_qps;
  /// One writer thread through the ingest pipeline during the timed
  /// phases, with background compaction on.
  bool writer;
};

// 256 degree-biased users fit the default 4096-entry proximity cache; the
// uniform draw over all 20k users keeps its hit ratio near 4096 / 20000.
constexpr QueryMix kWarmMix{256, 0.15, 0.15, 8192};
// Which 256 users make up the population moved throughput by up to a
// quarter from seed to seed, so the population is fixed, like the corpus,
// and the seed draws what they ask.
constexpr uint64_t kPopulationSeed = 256;
constexpr QueryMix kColdMix{0, 0.0, 0.0, 65536};

// warm_sharded runs by hand, for its fan-out layer, but is not in
// BENCHMARK.json: on a 4-vCPU VM shared with other tenants its open-loop
// latency followed the CPU time the host stole (median latency spread
// 0.48 of the median over 10 seeds), too wide for any allowed bound.
constexpr WorkloadSpec kWorkloads[] = {
    {"warm_local", 1, kWarmMix, 1800.0, false},
    {"warm_sharded", 4, kWarmMix, 1400.0, false},
    {"cold_proximity", 1, kColdMix, 2300.0, false},
    {"mixed_ingest", 1, kWarmMix, 1400.0, true},
};

// Writer: 2,000 items/s in batches of 20 plus 2 friendship edits/s.
constexpr double kWriterBatchesPerS = 100.0;
constexpr size_t kWriterBatchSize = 20;
constexpr double kWriterEditsPerS = 2.0;
// Write visibility is the median over consecutive blocks of
// kWriteWindow batches of each block's percentile; a block of 1,000 holds
// 10 samples beyond its p99. Read-only workloads end with a closed-loop
// write probe of kProbeBatches batches, back to back (one edit every
// kProbeEditEvery).
constexpr size_t kWriteWindow = 1000;
constexpr size_t kProbeBatches = 7 * kWriteWindow;
constexpr size_t kProbeEditEvery = 50;
// The logged WAL tail that restart_s replays: item batches + edits.
constexpr size_t kTailBatches = 60;
constexpr size_t kTailEdits = 4;

constexpr size_t kSetupRepeats = 5;
constexpr size_t kRestartRepeats = 15;
constexpr double kClosedShare = 0.4;  // of --seconds; the rest is open loop
// Both loops are cut into intervals of kIntervalSeconds, each with the
// share of CPU time other tenants of the machine stole during it.
// Throughput is the median rate over the intervals with the least steal
// and latency the percentile of the requests due in them (LeastStolen).
constexpr double kIntervalSeconds = 0.1;
constexpr size_t kProbesPerClass = 12;
// Traced runs reassemble every Nth traced request from per-layer calls.
constexpr uint64_t kSampleEvery = 8;
// Sends wait while every sender is busy, so lag includes ordinary
// queueing behind slow queries; a p99 beyond this bound means the backlog
// grew and the run did not hold its arrival rate. The run record then
// says "valid": false; the result is still printed, so that one run
// spoiled by other tenants of the machine stays one outlier among many.
constexpr double kMaxLagP99Ms = 250.0;
constexpr size_t kNoConsistencyCheck = static_cast<size_t>(-1);
constexpr size_t kTopK = 10;

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

// --- Run record ----------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string work_dir;
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  if (argc % 2 == 0) return std::nullopt;  // every flag takes a value
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--git-sha") {
      args.git_sha = value;
    } else if (flag == "--src-digest") {
      args.src_digest = value;
    } else {
      return std::nullopt;
    }
  }
  if (args.workload.empty() || !have_seed || args.seconds <= 0.0 ||
      args.work_dir.empty()) {
    return std::nullopt;
  }
  return args;
}

size_t UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0.0;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

// --- Metrics -------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

using MetricList = std::vector<Metric>;

void Add(MetricList* out, std::string name, double value, std::string unit) {
  out->push_back(Metric{std::move(name), value, std::move(unit)});
}

// --- The run -------------------------------------------------------------

/// Outcome counts of one thread; each slot is touched by one thread at a
/// time.
struct alignas(64) ThreadState {
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;
  uint64_t shed = 0;
  uint64_t wrong = 0;
  uint64_t tie_order = 0;   // see DepartsFromIdTieOrder
  uint64_t kth_ties = 0;    // probes that were TopKMatch::kKthTieDeparture
  // Traced requests only.
  amici::SearchStats stats;
  uint64_t traced_responses = 0;
  uint64_t items_returned = 0;
  uint64_t truncated = 0;
  std::vector<double> unindexed_items;
  std::vector<double> overlay_rows;
};

class Run {
 public:
  Run(const WorkloadSpec& spec, const Args& args)
      : spec_(spec),
        args_(args),
        threads_(UsableCpus()),
        states_(threads_ + 1) {}

  /// Returns the process exit code.
  int Execute();

 private:
  ThreadState& control() { return states_[threads_]; }

  amici::Result<std::unique_ptr<SearchService>> Build(amici::SocialGraph graph,
                                                      amici::ItemStore store);
  amici::Result<std::unique_ptr<SearchService>> Reopen(
      const std::string& dir, amici::persist::WalReplayStats* replay);
  amici::Status Setup();
  amici::Status Warm();
  void RefreshEngines();

  /// Counts one response into `state`; a `pool_index` other than
  /// kNoConsistencyCheck enables the same-query-same-answer check.
  void Account(const amici::Result<SearchResponse>& response,
               size_t pool_index, ThreadState* state);
  size_t ConsistencyIndex(size_t pool_index) const {
    return spec_.writer ? kNoConsistencyCheck : pool_index;
  }
  /// Adds a traced response's work counters to `state`.
  void CountTraced(const amici::Result<SearchResponse>& response,
                   ThreadState* state);
  void Issue(size_t thread, uint64_t sequence, bool traced);
  void IssueSampled(size_t thread, size_t index, ThreadState* state);

  /// The correctness gate: every probe through the default path must
  /// match kExhaustive on the same state (CompareTopK). Appends the
  /// default answers to `answers` when given.
  void Probe(const char* stage,
             std::vector<std::vector<amici::ScoredItem>>* answers);
  /// Generates the dataset and draws the inputs from the seed.
  amici::Status Prepare();
  /// Closed loop, then open loop (with the writer of mixed_ingest).
  void MeasureTimedPhases();
  /// Writes (read workloads), probes, save, logged tail, restarts.
  amici::Status Epilogue();

  /// Write visibility: the median over blocks of kWriteWindow batches of
  /// each block's percentile `bp`.
  double WriteVisibleMs(uint32_t bp) const;
  /// Open-loop latencies of the requests due in the least-stolen
  /// intervals.
  std::vector<double> KeptLatencies() const;
  void ReportEndToEnd(MetricList* out);
  void ReportPerLayer(MetricList* out);
  void PrintRecord(const MetricList& metrics) const;

  const WorkloadSpec& spec_;
  const Args args_;
  const size_t threads_;
  std::vector<ThreadState> states_;

  amici::Dataset dataset_;
  QueryPool pool_;
  std::vector<SearchRequest> requests_;
  std::unique_ptr<std::atomic<uint64_t>[]> first_answer_;
  std::unique_ptr<SearchService> service_;
  std::vector<amici::SocialSearchEngine*> engines_;
  std::unique_ptr<Tracer> tracer_;
  bool probes_ok_ = true;
  std::string probe_failure_;

  // Measurements.
  std::vector<double> setup_s_;
  std::vector<double> build_s_;
  ClosedLoopResult closed_;
  OpenLoopResult open_;
  WriteRecords writes_;
  std::vector<double> restart_s_;
  uint64_t wal_records_ = 0;
  amici::ProximityProviderStats proximity_before_, proximity_after_;
  amici::IngestCounters ingest_before_, ingest_after_;
  uint64_t compactions_before_ = 0, compactions_after_ = 0;
  CpuTimes cpu_before_, cpu_after_;
  double lag_p99_ms_ = 0.0;
};

amici::Result<std::unique_ptr<SearchService>> Run::Build(
    amici::SocialGraph graph, amici::ItemStore store) {
  if (spec_.shards == 1) {
    auto built = amici::LocalSearchService::Build(
        std::move(graph), std::move(store),
        amici::LocalSearchService::Options());
    if (!built.ok()) return built.status();
    return std::unique_ptr<SearchService>(std::move(built).value());
  }
  amici::ShardedSearchService::Options options;
  options.num_shards = spec_.shards;
  auto built = amici::ShardedSearchService::Build(
      std::move(graph), std::move(store), std::move(options));
  if (!built.ok()) return built.status();
  return std::unique_ptr<SearchService>(std::move(built).value());
}

amici::Result<std::unique_ptr<SearchService>> Run::Reopen(
    const std::string& dir, amici::persist::WalReplayStats* replay) {
  if (spec_.shards == 1) {
    auto opened = amici::LocalSearchService::OpenSnapshot(
        dir, amici::LocalSearchService::Options(), {}, replay);
    if (!opened.ok()) return opened.status();
    return std::unique_ptr<SearchService>(std::move(opened).value());
  }
  amici::ShardedSearchService::Options options;
  options.num_shards = spec_.shards;
  auto opened = amici::ShardedSearchService::OpenSnapshot(
      dir, std::move(options), {}, replay);
  if (!opened.ok()) return opened.status();
  return std::unique_ptr<SearchService>(std::move(opened).value());
}

void Run::RefreshEngines() {
  engines_.clear();
  if (auto* local = dynamic_cast<amici::LocalSearchService*>(service_.get())) {
    engines_.push_back(local->engine());
  } else if (auto* sharded =
                 dynamic_cast<amici::ShardedSearchService*>(service_.get())) {
    for (size_t s = 0; s < sharded->num_shards(); ++s) {
      engines_.push_back(sharded->shard_engine(s));
    }
  }
}

/// Runs fn(i) for i in [0, n) on `threads` threads until fn returns false.
template <typename Fn>
void ParallelFor(size_t threads, size_t n, const Fn& fn) {
  std::atomic<size_t> next{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < n && !stop.load();
           i = next.fetch_add(1)) {
        if (!fn(i)) stop.store(true);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
}

amici::Status Run::Warm() {
  std::atomic<bool> failed{false};
  const auto search = [&](size_t index) {
    if (!service_->Search(requests_[index]).ok()) failed.store(true);
  };
  if (spec_.mix.query_users > 0) {
    // One query per query user puts every user's proximity in the cache.
    std::vector<size_t> first_of_user;
    std::vector<amici::UserId> seen;
    for (size_t i = 0; i < pool_.queries.size(); ++i) {
      const amici::UserId user = pool_.queries[i].user;
      if (std::find(seen.begin(), seen.end(), user) != seen.end()) continue;
      seen.push_back(user);
      first_of_user.push_back(i);
    }
    ParallelFor(threads_, first_of_user.size(), [&](size_t i) {
      search(first_of_user[i]);
      return true;
    });
  } else {
    // Uniform users: fill the proximity cache to capacity.
    const size_t capacity =
        amici::SocialSearchEngine::Options().proximity_cache_capacity;
    ParallelFor(threads_, requests_.size(), [&](size_t i) {
      search(i);
      return i % 32 != 0 ||
             service_->proximity_stats().cache_entries < capacity;
    });
  }
  return failed.load() ? amici::Status::Internal("a warm-up query failed")
                       : amici::Status::Ok();
}

amici::Status Run::Setup() {
  for (size_t r = 0; r < kSetupRepeats; ++r) {
    amici::SocialGraph graph = dataset_.graph;
    amici::ItemStore store = dataset_.store;
    service_.reset();
    const int64_t start = NowNs();
    auto built = Build(std::move(graph), std::move(store));
    if (!built.ok()) return built.status();
    service_ = std::move(built).value();
    const int64_t built_at = NowNs();
    if (spec_.writer) {
      AMICI_RETURN_IF_ERROR(service_->StartIngest());
      AMICI_RETURN_IF_ERROR(service_->StartAutoCompaction());
    }
    AMICI_RETURN_IF_ERROR(Warm());
    const int64_t ready = NowNs();
    setup_s_.push_back((ready - start) / 1e9);
    build_s_.push_back((built_at - start) / 1e9);
    if (tracer_) {
      SpanBuffer* buffer = tracer_->buffer(threads_);
      buffer->Add(SpanName::kBuild, 0, 0, -1, start, built_at);
      buffer->Add(SpanName::kWarmup, 0, 0, -1, built_at, ready);
    }
  }
  RefreshEngines();
  return amici::Status::Ok();
}

void Run::Account(const amici::Result<SearchResponse>& response,
                  size_t pool_index, ThreadState* state) {
  ++state->attempted;
  if (!response.ok()) {
    ++state->failed;
    return;
  }
  if (response.value().shed) {
    ++state->shed;
    return;
  }
  const std::vector<amici::ScoredItem>& items = response.value().items;
  bool right = WellFormed(response.value(), kTopK);
  if (right && pool_index != kNoConsistencyCheck) {
    // Nothing writes during a read-only workload's timed phases, so every
    // answer to the same query must be the same.
    const uint64_t hash = AnswerHash(items);
    uint64_t expected = 0;
    if (!first_answer_[pool_index].compare_exchange_strong(expected, hash)) {
      right = expected == hash;
    }
  }
  ++(right ? state->ok : state->wrong);
  if (DepartsFromIdTieOrder(items)) ++state->tie_order;
}

void Run::CountTraced(const amici::Result<SearchResponse>& response,
                      ThreadState* state) {
  if (!response.ok()) return;
  amici::MergeSearchStats(response.value().stats, &state->stats);
  ++state->traced_responses;
  state->items_returned += response.value().items.size();
  state->truncated += response.value().stats.truncated ? 1 : 0;
}

void Run::Issue(size_t thread, uint64_t sequence, bool traced) {
  ThreadState* state = &states_[thread];
  const size_t index = sequence % requests_.size();
  const size_t check = ConsistencyIndex(index);
  if (!traced) {
    Account(service_->Search(requests_[index]), check, state);
    return;
  }
  if (sequence % kSampleEvery == 0) {
    IssueSampled(thread, index, state);
    return;
  }
  const int64_t start = NowNs();
  const auto response = service_->Search(requests_[index]);
  const int64_t end = NowNs();
  tracer_->buffer(thread)->Add(SpanName::kSearch, pool_.classes[index],
                               tracer_->NextRequestId(), -1, start, end);
  Account(response, check, state);
  CountTraced(response, state);
}

void Run::IssueSampled(size_t thread, size_t index, ThreadState* state) {
  SpanBuffer* buffer = tracer_->buffer(thread);
  const uint64_t id = tracer_->NextRequestId();
  const amici::SocialQuery& query = requests_[index].query;
  const int32_t query_class = pool_.classes[index];
  const size_t root =
      buffer->Open(SpanName::kRequest, query_class, id, -1, NowNs());
  const auto parent = static_cast<int64_t>(root);

  const std::shared_ptr<amici::ProximityProvider> provider =
      service_->proximity_provider();
  const int64_t start = NowNs();
  const amici::ProximityProvider::GraphView view = provider->Acquire();
  amici::ProximityOutcome outcome = amici::ProximityOutcome::kCacheHit;
  (void)provider->GetProximity(*view.graph, query.user, view.generation,
                               &outcome);
  buffer->Add(SpanName::kGetProximity, static_cast<int32_t>(outcome), id,
              parent, start, NowNs());

  const auto query_engines = [&] {
    for (size_t s = 0; s < engines_.size(); ++s) {
      const int64_t begun = NowNs();
      const auto result = engines_[s]->Query(query);
      buffer->Add(SpanName::kEngineQuery, static_cast<int32_t>(s), id, parent,
                  begun, NowNs());
      ++state->attempted;
      ++(result.ok() ? state->ok : state->failed);
    }
  };
  amici::Result<SearchResponse> response = amici::Status::Internal("unset");
  const auto search = [&] {
    const int64_t begun = NowNs();
    response = service_->Search(requests_[index]);
    buffer->Add(SpanName::kSearch, query_class, id, parent, begun, NowNs());
  };
  // The second call of a pair runs on caches the first one warmed, so
  // half of the sampled requests call Search first (counterbalanced; see
  // ReportPerLayer).
  if (id % 2 == 0) {
    query_engines();
    search();
  } else {
    search();
    query_engines();
  }
  buffer->Close(root, NowNs());

  Account(response, ConsistencyIndex(index), state);
  CountTraced(response, state);
  state->unindexed_items.push_back(
      static_cast<double>(service_->unindexed_items()));
  state->overlay_rows.push_back(
      static_cast<double>(provider->stats().overlay_rows));
}

void Run::Probe(const char* stage,
                std::vector<std::vector<amici::ScoredItem>>* answers) {
  ThreadState* state = &control();
  for (const size_t index : pool_.probes) {
    SearchRequest exhaustive = requests_[index];
    exhaustive.algorithm = amici::AlgorithmId::kExhaustive;
    const auto got = service_->Search(requests_[index]);
    const auto want = service_->Search(exhaustive);
    Account(want, kNoConsistencyCheck, state);
    ++state->attempted;
    TopKMatch match = TopKMatch::kDifferent;
    if (got.ok() && want.ok() && WellFormed(got.value(), kTopK) &&
        WellFormed(want.value(), kTopK)) {
      match = CompareTopK(got.value().items, want.value().items, kTopK);
    }
    if (!got.ok()) {
      ++state->failed;
    } else if (got.value().shed) {
      ++state->shed;
    } else if (match == TopKMatch::kDifferent) {
      ++state->wrong;
    } else {
      ++state->ok;
      if (match == TopKMatch::kKthTieDeparture) ++state->kth_ties;
      if (answers != nullptr) answers->push_back(got.value().items);
      continue;
    }
    if (probes_ok_) {
      probe_failure_ = std::string(stage) + ": probe " +
                       std::to_string(index) + " differs from kExhaustive";
    }
    probes_ok_ = false;
    if (answers != nullptr) answers->emplace_back();
  }
}

amici::Status Run::Epilogue() {
  ItemSource items(dataset_, SubSeed(args_.seed, 31));
  EditSource edits(dataset_.graph.num_users(), SubSeed(args_.seed, 32));
  if (!spec_.writer) {
    // No ingest pipeline runs in a read-only deployment, so its writes
    // take the synchronous fallback of EnqueueItems.
    writes_ = RunWriteProbe(service_.get(), &items, &edits, kProbeBatches,
                            kWriterBatchSize, kProbeEditEvery);
  }
  AMICI_RETURN_IF_ERROR(service_->Flush());
  ingest_after_ = service_->ingest_counters();
  compactions_after_ = service_->auto_compactions();
  Probe("after writes", nullptr);
  AMICI_RETURN_IF_ERROR(service_->StopAutoCompaction());
  AMICI_RETURN_IF_ERROR(service_->StopIngest());

  const std::string dir = args_.work_dir + "/snapshot";
  std::filesystem::remove_all(dir);
  auto saved = service_->SaveSnapshot(dir);
  if (!saved.ok()) return saved.status();
  // The fixed logged tail: every mutation below is WAL-appended and
  // flushed before it returns, outside any timed phase.
  ThreadState* state = &control();
  for (size_t b = 0; b < kTailBatches; ++b) {
    ++state->attempted;
    ++(service_->AddItems(items.Batch(kWriterBatchSize)).ok() ? state->ok
                                                             : state->failed);
  }
  for (size_t e = 0; e < kTailEdits; ++e) {
    const EditSource::Edit edit = edits.Next(
        [&](amici::UserId u) { return service_->FriendsOf(u); });
    ++state->attempted;
    const amici::Status status = edit.add
                                     ? service_->AddFriendship(edit.u, edit.v)
                                     : service_->RemoveFriendship(edit.u, edit.v);
    ++(status.ok() ? state->ok : state->failed);
  }
  std::vector<std::vector<amici::ScoredItem>> before;
  Probe("after logged tail", &before);

  for (size_t r = 0; r < kRestartRepeats; ++r) {
    service_.reset();
    amici::persist::WalReplayStats replay;
    const int64_t start = NowNs();
    auto reopened = Reopen(dir, &replay);
    const int64_t end = NowNs();
    if (!reopened.ok()) return reopened.status();
    restart_s_.push_back((end - start) / 1e9);
    wal_records_ = replay.records_applied;
    service_ = std::move(reopened).value();
  }
  std::vector<std::vector<amici::ScoredItem>> after;
  Probe("reopened", &after);
  for (size_t i = 0; i < before.size() && i < after.size(); ++i) {
    if (!SameItems(before[i], after[i])) {
      probes_ok_ = false;
      probe_failure_ = "reopened service answers differently";
    }
  }
  service_.reset();
  std::filesystem::remove_all(dir);
  return amici::Status::Ok();
}

amici::Status Run::Prepare() {
  auto dataset = amici::GenerateDataset(amici::MediumDataset());
  if (!dataset.ok()) return dataset.status();
  dataset_ = std::move(dataset).value();
  auto pool = MakeQueryPool(dataset_, spec_.mix, kPopulationSeed,
                            SubSeed(args_.seed, 1), kProbesPerClass);
  if (!pool.ok()) return pool.status();
  pool_ = std::move(pool).value();
  for (const amici::SocialQuery& query : pool_.queries) {
    SearchRequest request;
    request.query = query;
    requests_.push_back(std::move(request));
  }
  first_answer_.reset(new std::atomic<uint64_t>[requests_.size()]());
  if (args_.trace) {
    tracer_ = std::make_unique<Tracer>(threads_ + 1, 1 << 16);
  }
  return amici::Status::Ok();
}

void Run::MeasureTimedPhases() {
  cpu_before_ = ReadCpuTimes();
  proximity_before_ = service_->proximity_stats();
  ingest_before_ = service_->ingest_counters();
  compactions_before_ = service_->auto_compactions();
  ItemSource writer_items(dataset_, SubSeed(args_.seed, 21));
  EditSource writer_edits(dataset_.graph.num_users(), SubSeed(args_.seed, 22));
  std::unique_ptr<OpenLoopWriter> writer;
  if (spec_.writer) {
    writer = std::make_unique<OpenLoopWriter>(
        service_.get(), &writer_items, &writer_edits, kWriterBatchesPerS,
        kWriterBatchSize, kWriterEditsPerS);
  }
  const IssueFn issue = [this](size_t t, uint64_t seq, bool traced) {
    Issue(t, seq, traced);
  };
  // Traced runs alternate untraced and traced windows so that the
  // overhead compares like with like even while the state drifts.
  const bool trace = args_.trace;
  closed_ = RunClosedLoop(
      threads_, args_.seconds * kClosedShare, kIntervalSeconds,
      [trace](size_t w) { return trace && w % 2 == 1; }, 0, issue);
  const std::vector<int64_t> schedule = FixedRateSchedule(
      spec_.open_rate_qps, args_.seconds * (1 - kClosedShare));
  open_ = RunOpenLoop(threads_, schedule, kIntervalSeconds, trace,
                      closed_.completed + 1, issue);
  if (writer) writes_ = writer->Stop();
  proximity_after_ = service_->proximity_stats();
  cpu_after_ = ReadCpuTimes();

  std::vector<double> lag = open_.lag_ms;
  lag_p99_ms_ = Percentile(&lag, kP99);
}

int Run::Execute() {
  amici::Status status = Prepare();
  if (status.ok()) status = Setup();
  if (status.ok()) {
    Probe("before timed phases", nullptr);
    MeasureTimedPhases();
    status = Epilogue();
  }
  if (!status.ok()) {
    std::fprintf(stderr, "servebench: %s\n", status.ToString().c_str());
    return 1;
  }
  if (HighestSupportedPercentile(KeptLatencies().size()) < kP99) {
    std::fprintf(stderr, "servebench: too few samples for a p99; "
                         "--seconds is too short\n");
    return 3;
  }
  if (lag_p99_ms_ > kMaxLagP99Ms) {
    std::fprintf(stderr,
                 "invalid run: load generator lag p99 %.3f ms exceeds %.1f "
                 "ms; the arrival rate was not held (machine overloaded?)\n",
                 lag_p99_ms_, kMaxLagP99Ms);
  }

  MetricList metrics;
  if (args_.trace) {
    ReportPerLayer(&metrics);
  } else {
    ReportEndToEnd(&metrics);
  }
  PrintRecord(metrics);

  ThreadState total;
  for (const ThreadState& s : states_) {
    total.attempted += s.attempted;
    total.ok += s.ok;
    total.failed += s.failed;
    total.shed += s.shed;
    total.wrong += s.wrong;
    total.tie_order += s.tie_order;
    total.kth_ties += s.kth_ties;
  }
  total.attempted += writes_.attempted;
  total.failed += writes_.failed;
  total.ok += writes_.attempted - writes_.failed;
  const bool accounted =
      total.attempted == total.ok + total.failed + total.shed + total.wrong;
  const uint64_t bad = total.failed + total.shed + total.wrong;
  const bool correct = probes_ok_ && accounted && bad == 0;
  std::printf(
      "accounting: attempted=%llu ok=%llu failed=%llu shed=%llu wrong=%llu "
      "(%s) error_rate=%.6g\n"
      "departures: probes_kth_tie=%llu responses_float_tie_order=%llu\n",
      static_cast<unsigned long long>(total.attempted),
      static_cast<unsigned long long>(total.ok),
      static_cast<unsigned long long>(total.failed),
      static_cast<unsigned long long>(total.shed),
      static_cast<unsigned long long>(total.wrong),
      accounted ? "adds up" : "DOES NOT ADD UP",
      ErrorRate(total.failed, total.shed, total.wrong, total.attempted),
      static_cast<unsigned long long>(total.kth_ties),
      static_cast<unsigned long long>(total.tie_order));
  if (!probes_ok_) {
    std::printf("correctness gate: %s\n", probe_failure_.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(total.attempted),
              static_cast<unsigned long long>(bad));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}

/// A latency percentile that the sample must support (see stats.h).
double TailOrZero(std::vector<double> values, uint32_t bp) {
  if (HighestSupportedPercentile(values.size()) < bp) return 0.0;
  return Percentile(&values, bp);
}

std::vector<double> Run::KeptLatencies() const {
  return InKeptWindows(open_.latency_ms, open_.window,
                       LeastStolen(open_.window_steal));
}

double Run::WriteVisibleMs(uint32_t bp) const {
  std::vector<size_t> blocks;
  for (size_t i = 0; i < writes_.visible_ms.size(); ++i) {
    blocks.push_back(i / kWriteWindow);
  }
  return Median(WindowPercentiles(writes_.visible_ms, blocks, bp));
}

void Run::ReportEndToEnd(MetricList* out) {
  Add(out, "setup_s", Median(setup_s_), "s");
  Add(out, "peak_rss_mb", PeakRssMb(), "MB");
  std::vector<double> latency = KeptLatencies();
  Add(out, "throughput_qps",
      Median(Kept(closed_.window_qps, LeastStolen(closed_.window_steal))),
      "1/s");
  Add(out, "latency_p50_ms", Percentile(&latency, kP50), "ms");
  Add(out, "latency_p99_ms", Percentile(&latency, kP99), "ms");
  Add(out, "restart_s", Median(restart_s_), "s");
}

void Run::ReportPerLayer(MetricList* out) {
  const std::vector<Span> spans = tracer_->Collect();
  const std::string trace_dir = args_.work_dir + "/trace";
  std::filesystem::create_directories(trace_dir);
  const std::string trace_path = trace_dir + "/" + spec_.name + "-seed" +
                                 std::to_string(args_.seed) + ".jsonl";
  if (!WriteSpans(spans, trace_path)) {
    std::fprintf(stderr, "could not write %s\n", trace_path.c_str());
  }

  // service: per-class Search time and the parts of sampled requests.
  std::vector<double> search_us[kNumQueryClasses];
  std::vector<double> engine_us;
  for (const Span& span : spans) {
    const double us = (span.end_ns - span.start_ns) / 1e3;
    if (span.name == SpanName::kSearch && span.detail >= 0 &&
        span.detail < kNumQueryClasses) {
      search_us[span.detail].push_back(us);
    } else if (span.name == SpanName::kEngineQuery) {
      engine_us.push_back(us);
    }
  }
  // Search minus the slowest engine Query, split by which ran first: the
  // mean of the two medians cancels the benefit the second call draws
  // from caches the first one warmed.
  std::vector<double> edge_us[2], skew_us, hit_us, miss_ms, self_us;
  for (const SampledRequest& request : SampledRequests(spans)) {
    std::vector<double> engines = request.engine_us;
    std::sort(engines.begin(), engines.end());
    const double slowest = engines.empty() ? 0.0 : engines.back();
    edge_us[request.search_first ? 1 : 0].push_back(request.search_us -
                                                     slowest);
    if (engines.size() > 1) skew_us.push_back(slowest - Median(engines));
    if (request.proximity_outcome ==
        static_cast<int32_t>(amici::ProximityOutcome::kCacheHit)) {
      hit_us.push_back(request.proximity_us);
    } else if (request.proximity_outcome ==
               static_cast<int32_t>(amici::ProximityOutcome::kComputed)) {
      miss_ms.push_back(request.proximity_us / 1e3);
    }
    self_us.push_back(request.self_us);
  }

  ThreadState total;
  for (const ThreadState& s : states_) {
    amici::MergeSearchStats(s.stats, &total.stats);
    total.traced_responses += s.traced_responses;
    total.items_returned += s.items_returned;
    total.truncated += s.truncated;
    total.unindexed_items.insert(total.unindexed_items.end(),
                                 s.unindexed_items.begin(),
                                 s.unindexed_items.end());
    total.overlay_rows.insert(total.overlay_rows.end(),
                              s.overlay_rows.begin(), s.overlay_rows.end());
  }
  const auto responses = static_cast<double>(total.traced_responses);
  const amici::AggregationStats& agg = total.stats.aggregation;
  const auto per_query = [&](uint64_t count) {
    return Ratio(static_cast<double>(count), responses);
  };
  const auto max_of = [](const std::vector<double>& v) {
    return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
  };

  const double edge = (Median(edge_us[0]) + Median(edge_us[1])) / 2;
  Add(out, "service.edge_us", edge, "us");
  Add(out, "service.fanout_us", engines_.size() > 1 ? edge : 0.0, "us");
  Add(out, "service.shard_skew_us", Median(skew_us), "us");
  for (int c = 0; c < kNumQueryClasses; ++c) {
    Add(out, std::string("service.search_us.") + QueryClassName(c),
             Median(search_us[c]), "us");
  }
  Add(out, "core.query_us.p50", Median(engine_us), "us");
  Add(out, "core.query_us.p99", TailOrZero(engine_us, kP99), "us");
  Add(out, "core.build_s", Median(build_s_), "s");
  Add(out, "core.tail_items_scanned", per_query(total.stats.tail_items_scanned),
           "count/query");
  Add(out, "core.unindexed_items.mean", Mean(total.unindexed_items), "count");
  Add(out, "core.unindexed_items.max", max_of(total.unindexed_items), "count");
  Add(out, "core.truncated", static_cast<double>(total.truncated), "count");
  Add(out, "topk.sorted_accesses", per_query(agg.sorted_accesses),
           "count/query");
  Add(out, "topk.random_accesses", per_query(agg.random_accesses),
           "count/query");
  Add(out, "topk.candidates_scored", per_query(agg.candidates_scored),
           "count/query");
  Add(out, "topk.result_yield",
      ResultYield(total.items_returned, agg.candidates_scored), "ratio");
  Add(out, "storage.blocks_decoded", per_query(agg.blocks_decoded),
           "count/query");
  Add(out, "storage.block_skip_ratio",
      BlockSkipRatio(agg.blocks_decoded, agg.blocks_skipped), "ratio");

  const amici::ProximityProviderStats& p0 = proximity_before_;
  const amici::ProximityProviderStats& p1 = proximity_after_;
  const uint64_t hits = p1.cache_hits - p0.cache_hits;
  const uint64_t joins = p1.inflight_joins - p0.inflight_joins;
  const uint64_t computations = p1.computations - p0.computations;
  Add(out, "proximity.hit_us", Median(hit_us), "us");
  Add(out, "proximity.miss_ms", Median(miss_ms), "ms");
  Add(out, "proximity.hit_ratio", HitRatio(hits, joins, computations),
      "ratio");
  Add(out, "proximity.inflight_joins", static_cast<double>(joins), "count");
  Add(out, "proximity.warmed", static_cast<double>(p1.warmed - p0.warmed),
           "count");
  Add(out, "proximity_service.generations",
           static_cast<double>(p1.generations_published -
                               p0.generations_published),
           "count");
  Add(out, "proximity_service.overlay_rows", max_of(total.overlay_rows),
           "count");
  Add(out, "proximity_service.folds",
           static_cast<double>(p1.overlay_folds - p0.overlay_folds), "count");
  Add(out, "proximity_service.edit_visible_ms",
           Median(writes_.edit_visible_ms), "ms");

  const amici::IngestCounters& i0 = ingest_before_;
  const amici::IngestCounters& i1 = ingest_after_;
  Add(out, "ingest.enqueue_us", Median(writes_.enqueue_us), "us");
  Add(out, "ingest.item_visible_ms", WriteVisibleMs(kP50), "ms");
  Add(out, "ingest.item_visible_p99_ms", WriteVisibleMs(kP99), "ms");
  Add(out, "ingest.coalesce_ratio",
      CoalesceRatio(i1.batches_enqueued - i0.batches_enqueued,
                    i1.apply_calls - i0.apply_calls),
      "ratio");
  Add(out, "ingest.producer_waits",
           static_cast<double>(i1.producer_waits - i0.producer_waits),
           "count");
  Add(out, "ingest.max_queue_depth", static_cast<double>(i1.max_queue_depth),
           "count");
  Add(out, "ingest.compactions",
           static_cast<double>(compactions_after_ - compactions_before_),
           "count");
  Add(out, "persist.wal_records_replayed", static_cast<double>(wal_records_),
           "count");

  Add(out, "loadgen.lag_p99_ms", lag_p99_ms_, "ms");
  std::vector<double> untraced, traced;
  for (size_t w = 0; w < closed_.window_qps.size(); ++w) {
    (closed_.window_traced[w] ? traced : untraced)
        .push_back(closed_.window_qps[w]);
  }
  Add(out, "trace.overhead_frac",
      OverheadFraction(Median(untraced), Median(traced)), "ratio");
  Add(out, "trace.request_self_us", Median(self_us), "us");
}

void Run::PrintRecord(const MetricList& metrics) const {
  const amici::DatasetConfig& config = dataset_.config;
  const size_t kept = KeptLatencies().size();
  const size_t visible = writes_.visible_ms.size();
  std::printf(
      "run-record: {\"workload\": %s, \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"git_sha\": %s, \"src_digest\": %s, \"cpu_model\": "
      "%s, \"nproc\": %zu, \"dataset\": {\"name\": %s, \"users\": %zu, "
      "\"items\": %zu, \"tags\": %zu, \"geo_fraction\": %g, \"seed\": %llu}, "
      "\"query_seed\": %llu, \"population_seed\": %llu, "
      "\"backend\": \"%s\", \"query_users\": %zu, "
      "\"pool_size\": %zu, \"open_rate_qps\": %g, \"closed_clients\": %zu, "
      "\"writer\": %s, \"steal_frac\": %.4f, \"lag_p99_ms\": %.3f, "
      "\"valid\": %s, \"open_samples\": %zu, \"open_samples_kept\": %zu, "
      "\"latency_highest_supported_bp\": %u, \"write_samples\": %zu, "
      "\"write_highest_supported_bp\": %u}\n",
      JsonString(spec_.name).c_str(),
      static_cast<unsigned long long>(args_.seed), args_.seconds,
      args_.trace ? 1 : 0, JsonString(args_.git_sha).c_str(),
      JsonString(args_.src_digest).c_str(), JsonString(CpuModel()).c_str(),
      threads_, JsonString(config.name).c_str(), config.num_users,
      dataset_.store.num_items(), config.num_tags, config.geo_fraction,
      static_cast<unsigned long long>(config.seed),
      static_cast<unsigned long long>(SubSeed(args_.seed, 1)),
      static_cast<unsigned long long>(kPopulationSeed),
      spec_.shards == 1 ? "local" : "sharded", pool_.distinct_users,
      pool_.queries.size(), spec_.open_rate_qps, threads_,
      spec_.writer
          ? "{\"items_per_s\": 2000, \"batch\": 20, \"edits_per_s\": 2}"
          : "{\"closed_loop_probe_batches\": 7000, \"batch\": 20}",
      StealShare(cpu_before_, cpu_after_),
      lag_p99_ms_, lag_p99_ms_ > kMaxLagP99Ms ? "false" : "true",
      open_.latency_ms.size(), kept, HighestSupportedPercentile(kept),
      visible, HighestSupportedPercentile(visible));
  const auto summary = [](const char* loop, const std::vector<double>& steal) {
    const std::vector<bool> keep = LeastStolen(steal);
    std::printf("%s: %zu intervals of %.1f s, %zu kept; steal mean %.4f, "
                "max %.4f\n",
                loop, steal.size(), kIntervalSeconds,
                static_cast<size_t>(std::count(keep.begin(), keep.end(), true)),
                Mean(steal),
                steal.empty() ? 0.0
                              : *std::max_element(steal.begin(), steal.end()));
  };
  summary("closed loop", closed_.window_steal);
  summary("open loop", open_.window_steal);
  std::printf("closed-loop rate per second (1/s):");
  for (size_t w = 0; w + 10 <= closed_.window_qps.size(); w += 10) {
    double sum = 0.0;
    for (size_t i = w; i < w + 10; ++i) sum += closed_.window_qps[i];
    std::printf(" %.0f", sum / 10);
  }  std::printf("\nsetup (s):");
  for (const double v : setup_s_) std::printf(" %.3f", v);
  std::printf("\nbuild (s):");
  for (const double v : build_s_) std::printf(" %.3f", v);
  std::printf("\nrestart (s):");
  for (const double v : restart_s_) std::printf(" %.4f", v);
  std::printf("\nopen-loop p50/p99 per second (ms):");
  {
    const auto per_second = static_cast<size_t>(std::lround(1 / kIntervalSeconds));
    std::vector<size_t> second;
    for (const size_t w : open_.window) second.push_back(w / per_second);
    const auto p50 = WindowPercentiles(open_.latency_ms, second, kP50);
    const auto p99 = WindowPercentiles(open_.latency_ms, second, kP99);
    for (size_t w = 0; w < p50.size() && w < p99.size(); ++w) {
      std::printf(" %.3f/%.2f", p50[w], p99[w]);
    }
  }  std::printf("\n");
  for (const Metric& m : metrics) {
    std::printf("  %-36s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  const auto args = servebench::ParseArgs(argc, argv);
  if (!args.has_value()) {
    std::fprintf(stderr,
                 "usage: servebench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR [--git-sha SHA] "
                 "[--src-digest HEX]\n");
    return 2;
  }
  const servebench::WorkloadSpec* spec =
      servebench::FindWorkload(args->workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args->workload.c_str());
    return 2;
  }
  std::filesystem::create_directories(args->work_dir);
  servebench::Run run(*spec, *args);
  return run.Execute();
}
