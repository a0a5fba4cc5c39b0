#include "service/search_service.h"

#include <algorithm>
#include <condition_variable>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

#include "util/logging.h"
#include "util/string_util.h"

namespace amici {

void MergeSearchStats(const SearchStats& from, SearchStats* into) {
  into->aggregation.sorted_accesses += from.aggregation.sorted_accesses;
  into->aggregation.random_accesses += from.aggregation.random_accesses;
  into->aggregation.candidates_scored += from.aggregation.candidates_scored;
  into->aggregation.blocks_decoded += from.aggregation.blocks_decoded;
  into->aggregation.blocks_skipped += from.aggregation.blocks_skipped;
  into->items_considered += from.items_considered;
  into->tail_items_scanned += from.tail_items_scanned;
  into->proximity_computations += from.proximity_computations;
  into->proximity_cache_hits += from.proximity_cache_hits;
  // Any truncated shard makes the merged result best-effort.
  into->truncated = into->truncated || from.truncated;
}

namespace {

/// The untrusted-input check every request passes before admission: a
/// timeout the deadline machinery cannot represent is rejected, not
/// converted.
Status ValidateRequest(const SearchRequest& request) {
  if (!CancellationToken::ValidTimeout(request.timeout_ms)) {
    return Status::InvalidArgument(
        "timeout_ms must be <= 0 (no deadline) or finite and at most 1e12");
  }
  return Status::Ok();
}

/// The engine-wide result order: score-descending, ascending item id on
/// ties. Applied to GLOBAL ids here; it agrees with the per-shard heaps'
/// local-id tie-break because local order within a shard is global order
/// restricted to it (see the placement note in the header).
bool ScoreOrder(const ScoredItem& a, const ScoredItem& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.item < b.item;
}

}  // namespace

struct SearchService::Pending {
  size_t request = 0;  // index into the caller's requests
  size_t fetch_k = 0;
  /// The best diversified selection a fully completed round already
  /// produced, so a deadline expiring mid-round can never hand back LESS
  /// than an earlier round had in hand.
  std::vector<ScoredItem> best_diverse;
  SearchStats best_stats;
  bool has_best = false;
};

/// Heap-allocated and shared with the pool tasks on the deadline path: a
/// row whose deadline expires is ABANDONED — its stragglers finish later
/// and must still find live storage to write into (including their own
/// copy of the query).
struct SearchService::Round {
  std::mutex mutex;
  std::condition_variable cv;
  /// Per row; the row's query at this round's fetch depth.
  std::vector<SocialQuery> queries;
  std::vector<std::optional<AlgorithmId>> hints;
  /// Per row: the cooperative deadline token the shard queries probe.
  /// Unarmed for rows without a timeout. Lives here (not on the caller's
  /// stack) because an abandoned row's stragglers keep dereferencing it
  /// until they exit.
  std::vector<CancellationToken> tokens;
  std::vector<std::vector<Result<QueryResult>>> results;  // [row][shard]
  std::vector<std::vector<char>> done;                    // [row][shard]
  std::vector<size_t> remaining;                          // per row
};

// --- Construction, placement, persistence ------------------------------

SearchService::SearchService(Options options, std::string backend_label)
    : options_(std::move(options)), backend_label_(std::move(backend_label)) {}

SearchService::~SearchService() {
  // Scheduler first (no new compactions), then the pipeline (drains the
  // remaining queue synchronously through this service's mutators).
  StopAutoCompaction();
  StopIngest();
}

SearchService::ShardRef SearchService::Locate(ItemId global) const {
  const size_t num_shards = shards_.size();
  return {global % num_shards, static_cast<ItemId>(global / num_shards)};
}

ItemId SearchService::ToGlobal(size_t shard, ItemId local) const {
  return static_cast<ItemId>(local * shards_.size() + shard);
}

Result<std::unique_ptr<SearchService>> SearchService::Build(
    SocialGraph graph, ItemStore store, Options options) {
  // Protected constructor: cannot use make_unique.
  std::unique_ptr<SearchService> service(
      new SearchService(std::move(options), ""));
  AMICI_RETURN_IF_ERROR(
      service->BuildFrom(std::move(graph), std::move(store)));
  return service;
}

Status SearchService::BuildFrom(SocialGraph graph, ItemStore store) {
  if (options_.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  if (options_.engine.proximity_provider != nullptr) {
    return Status::InvalidArgument(
        "engine.proximity_provider must be null: SearchService builds the "
        "one shared provider itself");
  }
  const size_t num_shards = options_.num_shards;
  const size_t total = store.num_items();
  std::vector<ItemStore> stores(num_shards);
  if (num_shards == 1) {
    // The one shard takes the store whole (copying would only add setup
    // time).
    stores[0] = std::move(store);
  } else {
    // Deal the catalogue in global id order: item g to shard g % N, where
    // it gets local id g / N.
    for (size_t g = 0; g < total; ++g) {
      const ItemId global = static_cast<ItemId>(g);
      Item item;
      item.owner = store.owner(global);
      const auto tags = store.tags(global);
      item.tags.assign(tags.begin(), tags.end());
      item.quality = store.quality(global);
      item.has_geo = store.has_geo(global);
      if (item.has_geo) {
        item.latitude = store.latitude(global);
        item.longitude = store.longitude(global);
      }
      AMICI_RETURN_IF_ERROR(stores[g % num_shards].Add(item).status());
    }
  }

  // ONE provider for the whole service: the graph moves into it, and
  // every shard engine consumes it — no graph replicas, one shared
  // generation-keyed proximity cache.
  provider_ = SocialSearchEngine::MakeProximityProvider(std::move(graph),
                                                        options_.engine);
  shards_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    SocialSearchEngine::Options engine_options = options_.engine;
    engine_options.proximity_provider = provider_;
    AMICI_ASSIGN_OR_RETURN(
        std::unique_ptr<SocialSearchEngine> engine,
        SocialSearchEngine::Build(std::move(stores[s]),
                                  std::move(engine_options)));
    shards_.push_back(std::move(engine));
  }
  num_items_.store(total, std::memory_order_release);
  StartServing();
  return Status::Ok();
}

Result<std::unique_ptr<SearchService>> SearchService::OpenSnapshot(
    const std::string& dir, Options options,
    const persist::SnapshotOpenOptions& open_options,
    persist::WalReplayStats* replay_stats) {
  options.num_shards = 0;  // taken from the root manifest
  std::unique_ptr<SearchService> service(
      new SearchService(std::move(options), ""));
  AMICI_RETURN_IF_ERROR(service->OpenFrom(dir, open_options, replay_stats));
  return service;
}

Status SearchService::OpenFrom(
    const std::string& dir, const persist::SnapshotOpenOptions& open_options,
    persist::WalReplayStats* replay_stats) {
  if (options_.engine.proximity_provider != nullptr) {
    return Status::InvalidArgument(
        "engine.proximity_provider must be null: SearchService restores "
        "the one shared provider from the snapshot");
  }
  ServicePersistState state;
  AMICI_ASSIGN_OR_RETURN(
      LoadedServiceSnapshot loaded,
      OpenServiceSnapshot(dir, options_.engine, open_options, &state));
  const size_t num_shards = loaded.root.num_shards;
  if (options_.num_shards != 0 && num_shards != options_.num_shards) {
    return Status::InvalidArgument(
        dir + " holds a " + std::to_string(num_shards) +
        "-shard snapshot, expected " + std::to_string(options_.num_shards) +
        "; open it with SearchService::OpenSnapshot");
  }
  options_.num_shards = num_shards;
  provider_ = std::move(loaded.provider);
  shards_ = std::move(loaded.shards);
  persist_ = std::move(state);

  // Placement is arithmetic, so each shard's item count follows from the
  // catalogue size: shard s holds the ids g < num_items with g % N == s.
  const uint64_t total = loaded.root.num_items;
  for (size_t s = 0; s < num_shards; ++s) {
    const uint64_t expected = total / num_shards + (s < total % num_shards);
    if (expected != shards_[s]->store().num_items()) {
      return Status::Corruption(
          "shard " + std::to_string(s) + " holds " +
          std::to_string(shards_[s]->store().num_items()) +
          " items, placement expects " + std::to_string(expected));
    }
  }
  num_items_.store(total, std::memory_order_release);
  StartServing();

  // Replay the acknowledged ingest tail through the NORMAL mutators
  // (the WAL is not attached yet, so nothing is re-logged).
  persist::WalReplayHandlers handlers;
  handlers.add_items = [this](uint64_t first_item_id,
                              std::vector<Item>&& items) -> Status {
    if (first_item_id != num_items()) {
      return Status::Corruption(
          "WAL batch starts at item " + std::to_string(first_item_id) +
          ", catalogue has " + std::to_string(num_items()) +
          " (wrong base snapshot?)");
    }
    return AddItems(items).status();
  };
  handlers.add_friendship = [this](UserId u, UserId v) {
    return AddFriendship(u, v);
  };
  handlers.remove_friendship = [this](UserId u, UserId v) {
    return RemoveFriendship(u, v);
  };
  AMICI_ASSIGN_OR_RETURN(const persist::WalReplayStats stats,
                         ReplayAndAttachWal(&persist_, handlers));
  if (replay_stats != nullptr) *replay_stats = stats;
  return Status::Ok();
}

void SearchService::StartServing() {
  if (backend_label_.empty()) {
    backend_label_ = "sharded/" + std::to_string(shards_.size());
  }
  const size_t hardware =
      std::max<size_t>(1, std::thread::hardware_concurrency());
  const size_t threads =
      options_.fanout_threads > 0
          ? options_.fanout_threads
          : std::max<size_t>(1, std::min(shards_.size(), hardware));
  pool_ = std::make_unique<ThreadPool>(threads);
}

Result<persist::SnapshotSaveReport> SearchService::SaveSnapshot(
    const std::string& dir) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  std::vector<SocialSearchEngine*> engines;
  engines.reserve(shards_.size());
  for (const auto& shard : shards_) engines.push_back(shard.get());
  return SaveServiceSnapshot(dir, engines, *provider_,
                             num_items_.load(std::memory_order_acquire),
                             &persist_);
}

// --- Query QoS edge ----------------------------------------------------

std::shared_ptr<AdmissionController> SearchService::admission() const {
  std::lock_guard<std::mutex> lock(background_mutex_);
  return admission_;
}

void SearchService::EnableAdmissionControl(
    AdmissionController::Options options) {
  auto controller = std::make_shared<AdmissionController>(std::move(options));
  std::lock_guard<std::mutex> lock(background_mutex_);
  admission_ = std::move(controller);
}

void SearchService::DisableAdmissionControl() {
  std::lock_guard<std::mutex> lock(background_mutex_);
  admission_ = nullptr;
}

SearchResponse SearchService::MakeShedResponse(
    const SearchRequest& request) const {
  SearchResponse response;
  response.shed = true;
  response.backend = backend_name();
  response.algorithm = AlgorithmName(
      request.algorithm.value_or(PlanAlgorithm(request.query)));
  response.shards_touched = 0;
  return response;
}

SearchRequest SearchService::ApplyDegrade(
    const SearchRequest& request, const AdmissionController::Options& opts) {
  SearchRequest degraded = request;
  if (opts.degrade_k_cap > 0 && degraded.query.k > opts.degrade_k_cap) {
    degraded.query.k = opts.degrade_k_cap;
  }
  if (opts.degrade_timeout_ms > 0.0 &&
      (degraded.timeout_ms <= 0.0 ||
       degraded.timeout_ms > opts.degrade_timeout_ms)) {
    degraded.timeout_ms = opts.degrade_timeout_ms;
  }
  return degraded;
}

void SearchService::AccountResponse(const Result<SearchResponse>& response) {
  if (!response.ok()) return;
  const SearchResponse& r = response.value();
  if (r.stats.truncated) {
    qos_truncated_.fetch_add(1, std::memory_order_relaxed);
  }
  if (r.deadline_exceeded) {
    qos_deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
  }
  qos_shards_abandoned_.fetch_add(r.shards_abandoned,
                                  std::memory_order_relaxed);
  qos_shards_failed_.fetch_add(r.shards_failed, std::memory_order_relaxed);
}

Result<SearchResponse> SearchService::RunOneRequest(
    const SearchRequest& request,
    const std::shared_ptr<AdmissionController>& admission) {
  // Without a controller the edge is a pure pass-through, bit-identical
  // to the pre-admission behaviour (only the cumulative counters observe).
  std::optional<SearchRequest> degraded;
  if (admission != nullptr) {
    const AdmissionController::Ticket ticket =
        admission->Admit(EstimateQueryCost(request.query));
    if (ticket.decision == AdmissionController::Decision::kShed) {
      qos_shed_.fetch_add(1, std::memory_order_relaxed);
      return MakeShedResponse(request);
    }
    if (ticket.decision == AdmissionController::Decision::kDegrade) {
      degraded = ApplyDegrade(request, admission->options());
    }
  }
  Result<SearchResponse> response = std::move(ExecuteRequests(
      std::span<const SearchRequest>(degraded ? &*degraded : &request, 1))[0]);
  if (admission != nullptr) admission->Release();
  if (degraded) {
    qos_degraded_.fetch_add(1, std::memory_order_relaxed);
    if (response.ok()) response.value().degraded = true;
  } else {
    qos_admitted_.fetch_add(1, std::memory_order_relaxed);
  }
  AccountResponse(response);
  return response;
}

Result<SearchResponse> SearchService::Search(const SearchRequest& request) {
  AMICI_RETURN_IF_ERROR(ValidateRequest(request));
  return RunOneRequest(request, admission());
}

std::vector<Result<SearchResponse>> SearchService::SearchBatch(
    std::span<const SearchRequest> requests) {
  const std::shared_ptr<AdmissionController> controller = admission();
  const bool all_valid = std::all_of(
      requests.begin(), requests.end(),
      [](const SearchRequest& r) { return ValidateRequest(r).ok(); });
  if (controller == nullptr && all_valid) {
    // Pass-through: fan the whole batch out as one set of rounds; account
    // each row.
    qos_admitted_.fetch_add(requests.size(), std::memory_order_relaxed);
    std::vector<Result<SearchResponse>> responses = ExecuteRequests(requests);
    for (const auto& response : responses) AccountResponse(response);
    return responses;
  }

  // Per-row validation and admission BEFORE dispatch: rejected and shed
  // rows answer immediately (their slot in the batch holds the error or
  // a well-formed shed response), the rest run as one batch with degrade
  // overrides already applied.
  std::vector<Result<SearchResponse>> responses(
      requests.size(), Status::Internal("batch slot never executed"));
  std::vector<SearchRequest> to_run;
  std::vector<size_t> to_run_slot;
  std::vector<char> row_degraded;
  size_t slots_held = 0;
  to_run.reserve(requests.size());
  to_run_slot.reserve(requests.size());
  row_degraded.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    const Status valid = ValidateRequest(requests[i]);
    if (!valid.ok()) {
      responses[i] = valid;
      continue;
    }
    bool degrade = false;
    if (controller != nullptr) {
      const AdmissionController::Ticket ticket =
          controller->Admit(EstimateQueryCost(requests[i].query));
      if (ticket.decision == AdmissionController::Decision::kShed) {
        qos_shed_.fetch_add(1, std::memory_order_relaxed);
        responses[i] = MakeShedResponse(requests[i]);
        continue;
      }
      ++slots_held;
      degrade = ticket.decision == AdmissionController::Decision::kDegrade;
    }
    to_run.push_back(degrade
                         ? ApplyDegrade(requests[i], controller->options())
                         : requests[i]);
    to_run_slot.push_back(i);
    row_degraded.push_back(degrade ? 1 : 0);
  }
  if (!to_run.empty()) {
    std::vector<Result<SearchResponse>> ran = ExecuteRequests(to_run);
    for (size_t j = 0; j < ran.size(); ++j) {
      if (row_degraded[j]) {
        qos_degraded_.fetch_add(1, std::memory_order_relaxed);
        if (ran[j].ok()) ran[j].value().degraded = true;
      } else {
        qos_admitted_.fetch_add(1, std::memory_order_relaxed);
      }
      AccountResponse(ran[j]);
      responses[to_run_slot[j]] = std::move(ran[j]);
    }
  }
  for (size_t s = 0; s < slots_held; ++s) controller->Release();
  return responses;
}

SearchService::QosCounters SearchService::qos_counters() const {
  QosCounters counters;
  counters.admitted = qos_admitted_.load(std::memory_order_relaxed);
  counters.degraded = qos_degraded_.load(std::memory_order_relaxed);
  counters.shed = qos_shed_.load(std::memory_order_relaxed);
  counters.truncated = qos_truncated_.load(std::memory_order_relaxed);
  counters.deadline_exceeded =
      qos_deadline_exceeded_.load(std::memory_order_relaxed);
  counters.shards_abandoned =
      qos_shards_abandoned_.load(std::memory_order_relaxed);
  counters.shards_failed =
      qos_shards_failed_.load(std::memory_order_relaxed);
  return counters;
}

std::string SearchService::QosSummaryLine() const {
  const QosCounters c = qos_counters();
  const std::shared_ptr<AdmissionController> controller = admission();
  std::string line =
      "[qos] admitted=" + std::to_string(c.admitted) +
      " degraded=" + std::to_string(c.degraded) +
      " shed=" + std::to_string(c.shed) +
      " truncated=" + std::to_string(c.truncated) +
      " deadline_exceeded=" + std::to_string(c.deadline_exceeded) +
      " shards_abandoned=" + std::to_string(c.shards_abandoned) +
      " shards_failed=" + std::to_string(c.shards_failed);
  if (controller != nullptr) {
    const AdmissionController::Counters a = controller->counters();
    line += " inflight=" + std::to_string(controller->inflight()) +
            " peak_inflight=" + std::to_string(a.peak_inflight);
  }
  line += "\n";
  return line;
}

// --- Fan-out and exact merge ---------------------------------------------

void SearchService::RunFanOut(size_t count,
                              const std::function<void(size_t)>& fn) const {
  FanOutOnPool(pool_.get(), count, fn);
}

bool SearchService::AnyShardHasGeoItems() const {
  for (const auto& shard : shards_) {
    if (shard->snapshot()->has_geo_items()) return true;
  }
  return false;
}

Result<QueryResult> SearchService::QueryShard(
    size_t s, const SocialQuery& query, std::optional<AlgorithmId> hint,
    bool geo_fallback_allowed, const CancellationToken* cancel) const {
  const AlgorithmId algorithm = hint.value_or(PlanAlgorithm(query));
  Result<QueryResult> result = shards_[s]->Query(query, algorithm, cancel);
  if (!result.ok() && algorithm == AlgorithmId::kGeoGrid &&
      result.status().code() == StatusCode::kFailedPrecondition &&
      query.has_geo_filter && geo_fallback_allowed) {
    // With a geo filter on the query, geo-grid's only FailedPrecondition
    // is "no geo items covered by THIS shard's indexes" — but a
    // single-node engine over the whole corpus would have executed the
    // hint, so substitute hybrid (exact, only the work profile differs).
    // When no shard has geo items (fallback not allowed) the whole corpus
    // has none, and the hint must fail exactly like a single engine.
    result = shards_[s]->Query(query, AlgorithmId::kHybrid, cancel);
  }
  if (!result.ok()) return result;
  for (ScoredItem& item : result.value().items) {
    item.item = ToGlobal(s, item.item);
  }
  return result;
}

std::vector<Result<SearchResponse>> SearchService::ExecuteRequests(
    std::span<const SearchRequest> requests) {
  const Clock::time_point start = Clock::now();
  std::vector<Result<SearchResponse>> responses(
      requests.size(), Status::Internal("request never executed"));
  std::vector<Stopwatch> watches(requests.size());

  // A request stays pending while its owner-diversified selection needs a
  // deeper global prefix (iterative deepening, mirroring
  // SocialSearchEngine::QueryDiverse). Plain requests finish in round one.
  std::vector<Pending> pending;
  pending.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    pending.push_back(Pending{i, requests[i].query.k, {}, {}, false});
  }

  // Computed once per call (not per failing shard): whether a geo-grid
  // hint may fall back to hybrid on shards without geo coverage.
  bool geo_fallback_allowed = false;
  for (const SearchRequest& request : requests) {
    if (request.algorithm == AlgorithmId::kGeoGrid) {
      geo_fallback_allowed = AnyShardHasGeoItems();
      break;
    }
  }

  while (!pending.empty()) {
    const std::shared_ptr<Round> round =
        DispatchRound(requests, pending, start, geo_fallback_allowed);
    AwaitRound(*round);
    std::vector<Pending> deeper;
    for (size_t r = 0; r < pending.size(); ++r) {
      const size_t i = pending[r].request;
      std::optional<Result<SearchResponse>> merged =
          MergeRow(*round, r, requests[i], &pending[r], watches[i]);
      if (merged.has_value()) {
        responses[i] = std::move(*merged);
      } else {
        deeper.push_back(std::move(pending[r]));
      }
    }
    pending = std::move(deeper);
  }
  return responses;
}

std::shared_ptr<SearchService::Round> SearchService::DispatchRound(
    std::span<const SearchRequest> requests, std::span<const Pending> pending,
    Clock::time_point start, bool geo_fallback_allowed) {
  const size_t num_shards = shards_.size();
  const size_t rows = pending.size();
  auto round = std::make_shared<Round>();
  round->queries.reserve(rows);
  round->hints.reserve(rows);
  round->tokens.reserve(rows);
  bool any_deadline = false;
  for (const Pending& p : pending) {
    const SearchRequest& request = requests[p.request];
    SocialQuery query = request.query;
    query.k = p.fetch_k;
    round->queries.push_back(std::move(query));
    round->hints.push_back(request.algorithm);
    // The token carries the request's ABSOLUTE deadline (anchored at
    // ExecuteRequests start, so deepening rounds share it): shards stop
    // mid-algorithm when it passes, whether or not the caller has
    // abandoned the row yet.
    round->tokens.push_back(
        CancellationToken::FromTimeout(request.timeout_ms, start));
    if (request.timeout_ms > 0.0) any_deadline = true;
  }
  round->results.assign(
      rows, std::vector<Result<QueryResult>>(
                num_shards, Status::Internal("shard never completed")));
  round->done.assign(rows, std::vector<char>(num_shards, 0));
  round->remaining.assign(rows, num_shards);

  const size_t jobs = rows * num_shards;
  if (jobs == 1 || !any_deadline) {
    // Barrier fan-out over (row x shard), the caller participating. A
    // single job runs entirely on the calling thread: no pool hop, and a
    // deadline truncates it cooperatively instead of abandoning it. No
    // locking needed — the barrier orders every write before the merge.
    RunFanOut(jobs, [&](size_t job) {
      const size_t r = job / num_shards;
      const size_t s = job % num_shards;
      const CancellationToken& token = round->tokens[r];
      round->results[r][s] =
          QueryShard(s, round->queries[r], round->hints[r],
                     geo_fallback_allowed, token.armed() ? &token : nullptr);
      round->done[r][s] = 1;
    });
    round->remaining.assign(rows, 0);
    return round;
  }
  // Deadline path: every job goes to the pool, so AwaitRound can abandon
  // rows that overrun (their stragglers exit early through the row
  // token).
  for (size_t r = 0; r < rows; ++r) {
    for (size_t s = 0; s < num_shards; ++s) {
      pool_->Submit([this, round, r, s, geo_fallback_allowed] {
        Result<QueryResult> result =
            QueryShard(s, round->queries[r], round->hints[r],
                       geo_fallback_allowed, &round->tokens[r]);
        std::lock_guard<std::mutex> lock(round->mutex);
        round->results[r][s] = std::move(result);
        round->done[r][s] = 1;
        --round->remaining[r];
        round->cv.notify_all();
      });
    }
  }
  return round;
}

void SearchService::AwaitRound(Round& round) const {
  std::unique_lock<std::mutex> lock(round.mutex);
  for (size_t r = 0; r < round.tokens.size(); ++r) {
    const auto row_done = [&] { return round.remaining[r] == 0; };
    const std::optional<Clock::time_point> deadline =
        round.tokens[r].deadline();
    if (!deadline.has_value()) {
      round.cv.wait(lock, row_done);
      continue;
    }
    if (!round.cv.wait_until(lock, *deadline, row_done)) {
      // Row abandoned. The token's own deadline already expired, but
      // cancel explicitly anyway: it is the only signal on paths a clock
      // probe cannot reach promptly, and it makes abandonment visible to
      // stragglers the instant we stop waiting rather than whenever they
      // next read the clock.
      round.tokens[r].RequestCancel();
    }
  }
}

std::optional<Result<SearchResponse>> SearchService::MergeRow(
    Round& round, size_t r, const SearchRequest& request, Pending* pending,
    const Stopwatch& watch) const {
  const size_t num_shards = shards_.size();
  const size_t fetch_k = pending->fetch_k;

  // Snapshot this row's completed slots under the lock (stragglers of
  // abandoned rows may still be writing other slots). The slot storage
  // was sized up front and never reallocates, so pointers to completed
  // slots stay valid after the lock is released.
  std::vector<const QueryResult*> shard_results(num_shards, nullptr);
  size_t completed = 0;  // shards that reported, ok or errored
  size_t healthy = 0;    // shards that reported ok
  Status error = Status::Ok();
  {
    std::lock_guard<std::mutex> lock(round.mutex);
    for (size_t s = 0; s < num_shards; ++s) {
      if (!round.done[r][s]) continue;
      ++completed;
      if (!round.results[r][s].ok()) {
        if (error.ok()) error = round.results[r][s].status();
      } else {
        shard_results[s] = &round.results[r][s].value();
        ++healthy;
      }
    }
  }
  if (healthy == 0 && !error.ok()) {
    // Nothing to merge over — every shard that reported failed.
    return Result<SearchResponse>(std::move(error));
  }
  const size_t failed = completed - healthy;
  // Partial: some shard did not contribute — either the deadline passed
  // before it reported (abandoned) or it reported an error. The merge
  // below is exact over the HEALTHY shards; items held by the missing
  // shards are absent by design, and the response says so (shards_failed
  // / shards_abandoned / shard_error) instead of discarding the healthy
  // work.
  const bool partial = healthy < num_shards;

  SearchResponse response;
  response.backend = backend_label_;
  response.shards_touched = healthy;
  response.shards_abandoned = num_shards - completed;
  response.shards_failed = failed;
  if (failed > 0) response.shard_error = error.ToString();
  // Label with what actually executed when the (completed) shards agree
  // (e.g. every shard fell back to hybrid); a mixed fan-out keeps the
  // hint's (or the plan's) name — see the SearchResponse::algorithm
  // contract.
  const QueryResult* first = nullptr;
  bool uniform = true;
  for (size_t s = 0; s < num_shards && uniform; ++s) {
    if (shard_results[s] == nullptr) continue;
    if (first == nullptr) {
      first = shard_results[s];
    } else if (shard_results[s]->algorithm != first->algorithm) {
      uniform = false;
    }
  }
  response.algorithm =
      (first != nullptr && uniform)
          ? first->algorithm
          : AlgorithmName(
                request.algorithm.value_or(PlanAlgorithm(request.query)));
  std::vector<ScoredItem> merged;
  bool all_exhausted = true;
  for (size_t s = 0; s < num_shards; ++s) {
    if (shard_results[s] == nullptr) continue;
    MergeSearchStats(shard_results[s]->stats, &response.stats);
    merged.insert(merged.end(), shard_results[s]->items.begin(),
                  shard_results[s]->items.end());
    if (shard_results[s]->items.size() >= fetch_k) all_exhausted = false;
  }
  std::sort(merged.begin(), merged.end(), ScoreOrder);

  // Abandonment (a shard never reported before the deadline) and
  // cooperative truncation inside a shard are deadline symptoms; a shard
  // ERROR is not — it must not masquerade as a timeout.
  const bool abandoned = completed < num_shards;
  auto finalize = [&](std::vector<ScoredItem> items) {
    response.items = std::move(items);
    response.elapsed_ms = watch.ElapsedMillis();
    response.deadline_exceeded =
        abandoned || response.stats.truncated ||
        (request.timeout_ms > 0.0 && response.elapsed_ms > request.timeout_ms);
    return std::optional<Result<SearchResponse>>(std::move(response));
  };

  if (request.max_per_owner == 0) {
    // Exact: every global top-k member is in its own shard's top-k, so
    // the merge's first k entries ARE the global top-k.
    if (merged.size() > request.query.k) merged.resize(request.query.k);
    return finalize(std::move(merged));
  }

  // Owner-diversified: greedy per-owner cap over the EXACT global prefix.
  // When no shard was exhausted the first fetch_k entries of the merge
  // are exactly the global top-fetch_k; when every shard was exhausted
  // the merge is the entire positive-score corpus and greedy over all of
  // it is the exact answer.
  if (!all_exhausted && merged.size() > fetch_k) merged.resize(fetch_k);
  std::vector<ScoredItem> diverse;
  std::unordered_map<UserId, size_t> taken;
  for (const ScoredItem& entry : merged) {
    size_t& count = taken[OwnerOf(entry.item)];
    if (count >= request.max_per_owner) continue;
    ++count;
    diverse.push_back(entry);
    if (diverse.size() == request.query.k) break;
  }
  if (partial && pending->has_best &&
      pending->best_diverse.size() >= diverse.size()) {
    // This round was cut short AND a fully completed shallower round
    // already selected at least as many items: prefer that one (it was
    // exact over EVERY shard at its depth).
    response.shards_touched = num_shards;
    response.stats = pending->best_stats;
    return finalize(std::move(pending->best_diverse));
  }
  // Deepening past an expired deadline only digs the overrun deeper;
  // return the best prefix in hand instead. A partial row (abandoned or
  // errored shards) is likewise terminal — re-fanning deeper would just
  // repeat the miss.
  const bool deadline_passed =
      response.stats.truncated ||
      (request.timeout_ms > 0.0 && watch.ElapsedMillis() > request.timeout_ms);
  if (diverse.size() == request.query.k || all_exhausted || partial ||
      deadline_passed) {
    return finalize(std::move(diverse));
  }
  pending->fetch_k = NextDiverseFetchDepth(fetch_k);
  pending->best_diverse = std::move(diverse);
  pending->best_stats = response.stats;
  pending->has_best = true;
  return std::nullopt;
}

Result<std::vector<TagSuggestion>> SearchService::SuggestTags(
    UserId user, std::span<const TagId> seed_tags,
    const QueryExpansionOptions& options) {
  if (options.max_suggestions == 0) {
    // Mirror the per-engine validation the per-shard override would mask.
    return Status::InvalidArgument("max_suggestions must be >= 1");
  }
  // Every shard reports ALL its evidence (no per-shard truncation or
  // thresholding — both are applied on the merged, global totals below;
  // a tag just under a per-shard threshold could clear the global one).
  QueryExpansionOptions shard_options = options;
  shard_options.max_suggestions = std::numeric_limits<size_t>::max();
  shard_options.min_cooccurrence = 1;

  std::vector<Result<std::vector<TagSuggestion>>> per_shard(
      shards_.size(), Status::Internal("never executed"));
  RunFanOut(shards_.size(), [&](size_t s) {
    per_shard[s] = shards_[s]->SuggestTags(user, seed_tags, shard_options);
  });

  struct Evidence {
    double weight = 0.0;
    uint32_t support = 0;
  };
  std::unordered_map<TagId, Evidence> evidence;
  for (const auto& shard_result : per_shard) {
    if (!shard_result.ok()) return shard_result.status();
    for (const TagSuggestion& s : shard_result.value()) {
      Evidence& e = evidence[s.tag];
      e.weight += static_cast<double>(s.weight);
      e.support += s.support;
    }
  }
  std::vector<TagSuggestion> suggestions;
  suggestions.reserve(evidence.size());
  for (const auto& [tag, e] : evidence) {
    if (e.support < options.min_cooccurrence) continue;
    suggestions.push_back({tag, static_cast<float>(e.weight), e.support});
  }
  std::sort(suggestions.begin(), suggestions.end(),
            [](const TagSuggestion& a, const TagSuggestion& b) {
              if (a.weight != b.weight) return a.weight > b.weight;
              return a.tag < b.tag;
            });
  if (suggestions.size() > options.max_suggestions) {
    suggestions.resize(options.max_suggestions);
  }
  return suggestions;
}

// --- Mutators ----------------------------------------------------------

Result<ItemId> SearchService::AddItem(const Item& item) {
  AMICI_ASSIGN_OR_RETURN(
      const std::vector<ItemId> ids,
      AddItems(std::span<const Item>(&item, 1)));
  return ids[0];
}

Result<std::vector<ItemId>> SearchService::AddItems(
    std::span<const Item> items) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  const size_t start = num_items_.load(std::memory_order_relaxed);
  const size_t users = num_users();
  const size_t num_shards = shards_.size();

  // Validate the whole batch up front — per-item shape at the CALLER's
  // batch position, then per-shard cumulative capacity — so the shard
  // appends below cannot fail halfway through the batch.
  std::vector<std::vector<Item>> per_shard(num_shards);
  for (size_t i = 0; i < items.size(); ++i) {
    if (items[i].owner >= users) {
      return Status::InvalidArgument(
          StringPrintf("batch item %zu: owner outside the social graph", i));
    }
    const size_t shard = (start + i) % num_shards;
    const Status status = shards_[shard]->store().ValidateForAdd(items[i]);
    if (!status.ok()) {
      return Status(status.code(), StringPrintf("batch item %zu: %s", i,
                                                status.message().c_str()));
    }
    per_shard[shard].push_back(items[i]);
  }
  for (size_t s = 0; s < num_shards; ++s) {
    if (per_shard[s].empty()) continue;
    // Shapes passed above; this adds the cumulative-capacity guarantee.
    AMICI_RETURN_IF_ERROR(
        shards_[s]->store().ValidateForAddAll(per_shard[s]));
  }

  // Admit the ids BEFORE any shard publishes: num_items() must never lag
  // behind what a response can already contain. The cost is that it
  // briefly LEADS readability — ids in [published, num_items()) exist but
  // are not yet backed by shard store rows, which is why OwnerOf/TagsOf
  // only accept ids obtained from a response or an Add return value (see
  // the header contract), never ids derived from num_items().
  num_items_.store(start + items.size(), std::memory_order_release);
  // One snapshot publish per touched shard (the batched-ingest path).
  for (size_t s = 0; s < num_shards; ++s) {
    if (per_shard[s].empty()) continue;
    const auto added = shards_[s]->AddItems(per_shard[s]);
    // Unreachable: ValidateForAddAll covered shape and cumulative
    // capacity; a partial batch would break the placement arithmetic,
    // so fail loudly.
    AMICI_CHECK(added.ok()) << added.status().ToString();
  }
  if (!items.empty()) {
    AMICI_RETURN_IF_ERROR(LogAddItems(&persist_, start, items));
  }
  std::vector<ItemId> ids(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    ids[i] = static_cast<ItemId>(start + i);
  }
  return ids;
}

Status SearchService::AddFriendship(UserId u, UserId v) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  // ONE edit on the one shared graph (an O(deg) overlay patch, not N);
  // every shard then adopts the published generation into a fresh
  // snapshot.
  AMICI_RETURN_IF_ERROR(provider_->AddFriendship(u, v));
  for (const auto& shard : shards_) {
    AMICI_CHECK_OK(shard->SyncGraph());
  }
  return LogFriendship(&persist_, /*adding=*/true, u, v);
}

Status SearchService::RemoveFriendship(UserId u, UserId v) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  AMICI_RETURN_IF_ERROR(provider_->RemoveFriendship(u, v));
  for (const auto& shard : shards_) {
    AMICI_CHECK_OK(shard->SyncGraph());
  }
  return LogFriendship(&persist_, /*adding=*/false, u, v);
}

Status SearchService::Compact() {
  // Compactions are heavy and independent: run them in parallel. Each
  // engine handles its own concurrency with queries and ingest.
  std::vector<Status> statuses(shards_.size());
  RunFanOut(shards_.size(),
            [&](size_t s) { statuses[s] = shards_[s]->Compact(); });
  for (const Status& status : statuses) {
    AMICI_RETURN_IF_ERROR(status);
  }
  return Status::Ok();
}

CompactionSignals SearchService::ShardSignals(size_t shard) const {
  AMICI_CHECK(shard < shards_.size());
  const auto snap = shards_[shard]->snapshot();
  CompactionSignals signals;
  signals.tail_items = snap->unindexed_items();
  signals.indexed_items = snap->index_horizon;
  // One consistent (items, latency) pair — the policy relates the two.
  const auto observation = shards_[shard]->stats().last_tail_scan();
  signals.last_tail_scan_ms = observation.elapsed_ms;
  signals.last_tail_scan_items = observation.items;
  return signals;
}

Status SearchService::CompactShard(size_t shard, CompactionOutcome* outcome) {
  AMICI_CHECK(shard < shards_.size());
  return shards_[shard]->Compact(outcome);
}

// --- Introspection -------------------------------------------------------

size_t SearchService::unindexed_items() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->unindexed_items();
  return total;
}

uint64_t SearchService::EstimateQueryCost(const SocialQuery& query) const {
  // Every shard runs the query against its own lists and tail, so the
  // fan-out's work is the SUM of the per-shard estimates (each shard's
  // conjunctive scan walks its own rarest list).
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    const auto snap = shard->snapshot();
    const InvertedIndex& inverted = snap->indexes->inverted;
    uint64_t postings = 0;
    if (query.mode == MatchMode::kAll && !query.tags.empty()) {
      postings = inverted.DocumentFrequency(inverted.RarestTag(query.tags));
    } else {
      for (const TagId tag : query.tags) {
        postings += inverted.DocumentFrequency(tag);
      }
    }
    total += postings + snap->unindexed_items();
  }
  return total;
}

UserId SearchService::OwnerOf(ItemId item) const {
  const ShardRef ref = Locate(item);
  return shards_[ref.shard]->store().owner(ref.local);
}

std::vector<TagId> SearchService::TagsOf(ItemId item) const {
  const ShardRef ref = Locate(item);
  const auto tags = shards_[ref.shard]->store().tags(ref.local);
  return std::vector<TagId>(tags.begin(), tags.end());
}

std::vector<UserId> SearchService::FriendsOf(UserId user) const {
  // Pin the provider's generation: the span must not dangle if a
  // concurrent friendship edit publishes a new graph mid-copy.
  const ProximityProvider::GraphView view = provider_->Acquire();
  const auto friends = view.graph->Friends(user);
  return std::vector<UserId>(friends.begin(), friends.end());
}

std::string SearchService::StatsSummary() const {
  std::string summary;
  for (size_t s = 0; s < shards_.size(); ++s) {
    summary += "[shard " + std::to_string(s) + "]\n";
    summary += shards_[s]->stats().ToString();
  }
  const ProximityProviderStats proximity = provider_->stats();
  summary += StringPrintf(
      "[proximity] computations=%llu cache_hits=%llu inflight_joins=%llu "
      "warmed=%llu generations=%llu entries=%zu\n",
      static_cast<unsigned long long>(proximity.computations),
      static_cast<unsigned long long>(proximity.cache_hits),
      static_cast<unsigned long long>(proximity.inflight_joins),
      static_cast<unsigned long long>(proximity.warmed),
      static_cast<unsigned long long>(proximity.generations_published),
      proximity.cache_entries);
  summary += StringPrintf(
      "[proximity_service] overlay_rows=%zu folds=%llu\n",
      proximity.overlay_rows,
      static_cast<unsigned long long>(proximity.overlay_folds));
  summary += QosSummaryLine();
  return summary;
}

// --- Background ingest / compaction plumbing ---------------------------

std::shared_ptr<IngestPipeline> SearchService::pipeline() const {
  std::lock_guard<std::mutex> lock(background_mutex_);
  return pipeline_;
}

std::shared_ptr<CompactionScheduler> SearchService::scheduler() const {
  std::lock_guard<std::mutex> lock(background_mutex_);
  return scheduler_;
}

Status SearchService::StartIngest(const IngestPipeline::Options& options) {
  std::lock_guard<std::mutex> lock(background_mutex_);
  if (pipeline_ != nullptr) {
    return Status::FailedPrecondition("ingest pipeline already running");
  }
  pipeline_ = std::make_shared<IngestPipeline>(this, options);
  return Status::Ok();
}

Status SearchService::StopIngest() {
  // shutdown_mutex_ spans the whole drain: a second concurrent caller
  // blocks here until the first caller's writer thread is joined, so
  // Stop's return always means "no writer thread is running".
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mutex_);
  std::shared_ptr<IngestPipeline> stopping = pipeline();
  if (stopping == nullptr) return Status::Ok();
  // Outside background_mutex_: Stop() drains the queue through this
  // service's mutators and unblocks producers waiting on backpressure.
  // The pipeline stays registered until the drain completes, so Flush()
  // issued concurrently still waits for queued work instead of
  // short-circuiting through the no-pipeline path.
  stopping->Stop();
  {
    std::lock_guard<std::mutex> lock(background_mutex_);
    pipeline_ = nullptr;
  }
  return Status::Ok();
}

bool SearchService::ingest_running() const { return pipeline() != nullptr; }

Result<IngestTicket> SearchService::EnqueueItems(std::vector<Item> items) {
  if (const auto active = pipeline(); active != nullptr) {
    return active->EnqueueItems(std::move(items));
  }
  // Synchronous fallback: apply now, hand back a completed ticket. Lets
  // callers write Enqueue + Flush once and run with or without the
  // pipeline (the ticket's status carries any rejection).
  Result<std::vector<ItemId>> ids = AddItems(items);
  if (!ids.ok()) return IngestTicket::Resolved(ids.status(), {});
  return IngestTicket::Resolved(Status::Ok(), std::move(ids).value());
}

Result<IngestTicket> SearchService::EnqueueFriendshipEdit(UserId u, UserId v,
                                                          bool adding) {
  // ONE pipeline snapshot decides both the validation mode and the
  // dispatch path — two separate reads could straddle a concurrent
  // Start/StopIngest and judge the edit under the wrong mode.
  const auto active = pipeline();
  // The provider is the single validation authority (the same rules the
  // edit itself will apply). Structural rejections (range, self-edge)
  // are always final at the edge; edge-EXISTENCE checks are only exact
  // when writes are synchronous — with a pipeline running, a still-
  // queued edit may legitimately change the edge's state before this
  // one applies (Add immediately followed by Remove is a valid ordered
  // sequence), so there the existence verdict rides the ticket instead.
  AMICI_RETURN_IF_ERROR(provider_->ValidateEdit(
      u, v, adding, /*check_existence=*/active == nullptr));
  if (active != nullptr) {
    return adding ? active->EnqueueAddFriendship(u, v)
                  : active->EnqueueRemoveFriendship(u, v);
  }
  return IngestTicket::Resolved(
      adding ? AddFriendship(u, v) : RemoveFriendship(u, v), {});
}

Result<IngestTicket> SearchService::EnqueueAddFriendship(UserId u, UserId v) {
  return EnqueueFriendshipEdit(u, v, /*adding=*/true);
}

Result<IngestTicket> SearchService::EnqueueRemoveFriendship(UserId u,
                                                            UserId v) {
  return EnqueueFriendshipEdit(u, v, /*adding=*/false);
}

Status SearchService::Flush() {
  if (const auto active = pipeline(); active != nullptr) {
    return active->Flush();
  }
  return Status::Ok();  // synchronous writes are always visible
}

IngestCounters SearchService::ingest_counters() const {
  if (const auto active = pipeline(); active != nullptr) {
    return active->counters();
  }
  return IngestCounters{};
}

Status SearchService::StartAutoCompaction(
    const CompactionScheduler::Options& options) {
  std::lock_guard<std::mutex> lock(background_mutex_);
  if (scheduler_ != nullptr) {
    return Status::FailedPrecondition("compaction scheduler already running");
  }
  scheduler_ = std::make_shared<CompactionScheduler>(this, options);
  return Status::Ok();
}

Status SearchService::StopAutoCompaction() {
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mutex_);
  std::shared_ptr<CompactionScheduler> stopping = scheduler();
  if (stopping == nullptr) return Status::Ok();
  stopping->Stop();  // outside background_mutex_: joins the poll thread
  {
    // Retire the count and unregister ATOMICALLY (one critical section):
    // auto_compactions() readers see either live-scheduler or
    // retired-count state, never a window with neither.
    std::lock_guard<std::mutex> lock(background_mutex_);
    retired_auto_compactions_ += stopping->compactions_triggered();
    scheduler_ = nullptr;
  }
  return Status::Ok();
}

bool SearchService::auto_compaction_running() const {
  return scheduler() != nullptr;
}

uint64_t SearchService::auto_compactions() const {
  std::lock_guard<std::mutex> lock(background_mutex_);
  uint64_t total = retired_auto_compactions_;
  if (scheduler_ != nullptr) total += scheduler_->compactions_triggered();
  return total;
}

void FanOutOnPool(ThreadPool* pool, size_t count,
                  const std::function<void(size_t)>& fn) {
  if (count == 0) return;
  if (count == 1) {
    fn(0);
    return;
  }
  // The counter is decremented UNDER the mutex: once the waiter observes
  // 0 the last worker has already left its critical section, so
  // returning (and destroying these stack-locals) cannot race a worker
  // still touching them.
  size_t remaining = count - 1;  // guarded by done_mutex
  std::mutex done_mutex;
  std::condition_variable done;
  for (size_t i = 1; i < count; ++i) {
    pool->Submit([&, i] {
      fn(i);
      std::lock_guard<std::mutex> lock(done_mutex);
      if (--remaining == 0) done.notify_all();
    });
  }
  fn(0);
  std::unique_lock<std::mutex> lock(done_mutex);
  done.wait(lock, [&] { return remaining == 0; });
}

}  // namespace amici
