#include "service/sharded_search_service.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

#include "util/hash.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace amici {
namespace {

/// The engine-wide result order: score-descending, ascending item id on
/// ties. Applied to GLOBAL ids here; it agrees with the per-shard heaps'
/// local-id tie-break because items are dealt to shards in global id
/// order, so local order within a shard is global order restricted to it.
bool ScoreOrder(const ScoredItem& a, const ScoredItem& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.item < b.item;
}

}  // namespace

struct ShardedSearchService::Pending {
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
struct ShardedSearchService::Round {
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

ShardedSearchService::ShardedSearchService(Options options,
                                           std::string backend_label)
    : options_(std::move(options)), backend_label_(std::move(backend_label)) {}

ShardedSearchService::~ShardedSearchService() { ShutdownBackgroundWork(); }

uint32_t ShardedSearchService::ShardOf(ItemId global) const {
  return static_cast<uint32_t>(Mix64(global) % options_.num_shards);
}

ShardedSearchService::ShardRef ShardedSearchService::Locate(
    ItemId global) const {
  if (identity_ids()) return {0, global};
  return global_to_shard_[global];
}

ItemId ShardedSearchService::ToGlobal(size_t shard, ItemId local) const {
  if (identity_ids()) return local;
  return local_to_global_[shard][local];
}

void ShardedSearchService::RecordPlacementLocked(ItemId global) {
  if (identity_ids()) return;
  AMICI_CHECK(global == static_cast<ItemId>(global_to_shard_.size()));
  const uint32_t shard = ShardOf(global);
  const ItemId local = static_cast<ItemId>(local_to_global_[shard].size());
  global_to_shard_.push_back({shard, local});
  local_to_global_[shard].push_back(global);
}

Result<std::unique_ptr<ShardedSearchService>> ShardedSearchService::Build(
    SocialGraph graph, ItemStore store, Options options) {
  // Protected constructor: cannot use make_unique.
  std::unique_ptr<ShardedSearchService> service(
      new ShardedSearchService(std::move(options), ""));
  AMICI_RETURN_IF_ERROR(
      service->BuildFrom(std::move(graph), std::move(store)));
  return service;
}

Status ShardedSearchService::BuildFrom(SocialGraph graph, ItemStore store) {
  if (options_.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  if (options_.engine.proximity_provider != nullptr) {
    return Status::InvalidArgument(
        "engine.proximity_provider must be null: ShardedSearchService "
        "builds the one shared provider itself");
  }
  const size_t num_shards = options_.num_shards;
  const size_t total = store.num_items();
  std::vector<ItemStore> stores(num_shards);
  if (identity_ids()) {
    stores[0] = std::move(store);
  } else {
    local_to_global_.resize(num_shards);
    // Deal the catalogue to per-shard stores by id hash, in global id
    // order (which keeps local id order consistent with global order per
    // shard).
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
      AMICI_RETURN_IF_ERROR(stores[ShardOf(global)].Add(item).status());
      RecordPlacementLocked(global);
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

void ShardedSearchService::StartServing() {
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

void ShardedSearchService::RunFanOut(
    size_t count, const std::function<void(size_t)>& fn) const {
  FanOutOnPool(pool_.get(), count, fn);
}

bool ShardedSearchService::AnyShardHasGeoItems() const {
  for (const auto& shard : shards_) {
    if (shard->snapshot()->has_geo_items()) return true;
  }
  return false;
}

Result<QueryResult> ShardedSearchService::QueryShard(
    size_t s, const SocialQuery& query, std::optional<AlgorithmId> hint,
    bool geo_fallback_allowed, const CancellationToken* cancel) const {
  const AlgorithmId algorithm = hint.value_or(AlgorithmId::kHybrid);
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

Result<SearchResponse> ShardedSearchService::SearchImpl(
    const SearchRequest& request) {
  std::vector<Result<SearchResponse>> responses =
      ExecuteRequests(std::span<const SearchRequest>(&request, 1));
  return std::move(responses[0]);
}

std::vector<Result<SearchResponse>> ShardedSearchService::SearchBatchImpl(
    std::span<const SearchRequest> requests) {
  return ExecuteRequests(requests);
}

std::vector<Result<SearchResponse>> ShardedSearchService::ExecuteRequests(
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

std::shared_ptr<ShardedSearchService::Round>
ShardedSearchService::DispatchRound(std::span<const SearchRequest> requests,
                                    std::span<const Pending> pending,
                                    Clock::time_point start,
                                    bool geo_fallback_allowed) {
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

void ShardedSearchService::AwaitRound(Round& round) const {
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

std::optional<Result<SearchResponse>> ShardedSearchService::MergeRow(
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
  // hint's name — see the SearchResponse::algorithm contract.
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
          : AlgorithmName(request.algorithm.value_or(AlgorithmId::kHybrid));
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
  pending->fetch_k = fetch_k * 2;
  pending->best_diverse = std::move(diverse);
  pending->best_stats = response.stats;
  pending->has_best = true;
  return std::nullopt;
}

Result<std::vector<TagSuggestion>> ShardedSearchService::SuggestTags(
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

Result<ItemId> ShardedSearchService::AddItem(const Item& item) {
  AMICI_ASSIGN_OR_RETURN(
      const std::vector<ItemId> ids,
      AddItems(std::span<const Item>(&item, 1)));
  return ids[0];
}

Result<std::vector<ItemId>> ShardedSearchService::AddItems(
    std::span<const Item> items) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  const size_t start =
      num_items_.load(std::memory_order_relaxed);
  const size_t users = num_users();

  // Validate the whole batch up front — per-item shape at the CALLER's
  // batch position, then per-shard cumulative capacity — so the engine
  // appends below cannot fail once the id maps are committed (the map
  // rows must be written before a shard publishes the items, because
  // readers translate ids of anything a pinned snapshot shows).
  std::vector<std::vector<Item>> per_shard(shards_.size());
  for (size_t i = 0; i < items.size(); ++i) {
    if (items[i].owner >= users) {
      return Status::InvalidArgument(
          StringPrintf("batch item %zu: owner outside the social graph", i));
    }
    const uint32_t shard = ShardOf(static_cast<ItemId>(start + i));
    const Status status = shards_[shard]->store().ValidateForAdd(items[i]);
    if (!status.ok()) {
      return Status(status.code(), StringPrintf("batch item %zu: %s", i,
                                                status.message().c_str()));
    }
    per_shard[shard].push_back(items[i]);
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (per_shard[s].empty()) continue;
    // Shapes passed above; this adds the cumulative-capacity guarantee.
    AMICI_RETURN_IF_ERROR(
        shards_[s]->store().ValidateForAddAll(per_shard[s]));
  }

  // Commit the id maps for the whole batch, then append per shard — one
  // snapshot publish per touched shard (the batched-ingest path).
  std::vector<ItemId> ids;
  ids.reserve(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    const ItemId global = static_cast<ItemId>(start + i);
    RecordPlacementLocked(global);
    ids.push_back(global);
  }
  // Admit the ids BEFORE any shard publishes: num_items() must never lag
  // behind what a response can already contain. The cost is that it
  // briefly LEADS readability — ids in [published, num_items()) exist but
  // are not yet backed by shard store rows, which is why OwnerOf/TagsOf
  // only accept ids obtained from a response or an Add return value (see
  // the header contract), never ids derived from num_items().
  num_items_.store(start + items.size(), std::memory_order_release);
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (per_shard[s].empty()) continue;
    const auto added = shards_[s]->AddItems(per_shard[s]);
    // Unreachable: ValidateForAddAll covered shape and cumulative
    // capacity; anything else would desynchronize the id maps, so fail
    // loudly.
    AMICI_CHECK(added.ok()) << added.status().ToString();
  }
  if (!items.empty()) {
    AMICI_RETURN_IF_ERROR(LogAddItems(&persist_, start, items));
  }
  return ids;
}

Status ShardedSearchService::AddFriendship(UserId u, UserId v) {
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

Status ShardedSearchService::RemoveFriendship(UserId u, UserId v) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  AMICI_RETURN_IF_ERROR(provider_->RemoveFriendship(u, v));
  for (const auto& shard : shards_) {
    AMICI_CHECK_OK(shard->SyncGraph());
  }
  return LogFriendship(&persist_, /*adding=*/false, u, v);
}

Result<persist::SnapshotSaveReport> ShardedSearchService::SaveSnapshot(
    const std::string& dir) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  std::vector<SocialSearchEngine*> engines;
  engines.reserve(shards_.size());
  for (const auto& shard : shards_) engines.push_back(shard.get());
  return SaveServiceSnapshot(dir, engines, *provider_,
                             num_items_.load(std::memory_order_acquire),
                             persist::SnapshotSaveOptions(), &persist_);
}

Result<std::unique_ptr<ShardedSearchService>>
ShardedSearchService::OpenSnapshot(
    const std::string& dir, Options options,
    const persist::SnapshotOpenOptions& open_options,
    persist::WalReplayStats* replay_stats) {
  options.num_shards = 0;  // taken from the root manifest
  std::unique_ptr<ShardedSearchService> service(
      new ShardedSearchService(std::move(options), ""));
  AMICI_RETURN_IF_ERROR(service->OpenFrom(dir, open_options, replay_stats));
  return service;
}

Status ShardedSearchService::OpenFrom(
    const std::string& dir, const persist::SnapshotOpenOptions& open_options,
    persist::WalReplayStats* replay_stats) {
  if (options_.engine.proximity_provider != nullptr) {
    return Status::InvalidArgument(
        "engine.proximity_provider must be null: ShardedSearchService "
        "restores the one shared provider from the snapshot");
  }
  ServicePersistState state;
  AMICI_ASSIGN_OR_RETURN(
      LoadedServiceSnapshot loaded,
      OpenServiceSnapshot(dir, options_.engine, open_options, &state));
  if (options_.num_shards != 0 &&
      loaded.root.num_shards != options_.num_shards) {
    return Status::InvalidArgument(
        dir + " holds a " + std::to_string(loaded.root.num_shards) +
        "-shard snapshot, expected " + std::to_string(options_.num_shards) +
        "; open it with ShardedSearchService::OpenSnapshot");
  }
  options_.num_shards = loaded.root.num_shards;
  if (!identity_ids()) local_to_global_.resize(options_.num_shards);
  provider_ = std::move(loaded.provider);
  shards_ = std::move(loaded.shards);
  persist_ = std::move(state);

  // The id maps are NOT persisted: placement is ShardOf(global), a pure
  // function of the global id and the shard count, so replaying global
  // ids 0..num_items-1 reconstructs both directions exactly as ingest
  // built them (identity ids have nothing to replay).
  if (!identity_ids()) {
    for (uint64_t g = 0; g < loaded.root.num_items; ++g) {
      RecordPlacementLocked(static_cast<ItemId>(g));
    }
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    const size_t expected = identity_ids() ? loaded.root.num_items
                                           : local_to_global_[s].size();
    if (expected != shards_[s]->store().num_items()) {
      return Status::Corruption(
          "shard " + std::to_string(s) + " holds " +
          std::to_string(shards_[s]->store().num_items()) +
          " items, placement expects " + std::to_string(expected));
    }
  }
  num_items_.store(loaded.root.num_items, std::memory_order_release);
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

Status ShardedSearchService::Compact() {
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

CompactionSignals ShardedSearchService::ShardSignals(size_t shard) const {
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

Status ShardedSearchService::CompactShard(size_t shard,
                                          CompactionOutcome* outcome) {
  AMICI_CHECK(shard < shards_.size());
  return shards_[shard]->Compact(outcome);
}

size_t ShardedSearchService::num_users() const {
  return provider_->num_users();
}

size_t ShardedSearchService::unindexed_items() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->unindexed_items();
  return total;
}

uint64_t ShardedSearchService::EstimateQueryCost(
    const SocialQuery& query) const {
  // Every shard runs the query against its own lists and tail, so the
  // fan-out's work is the SUM of the per-shard estimates (each shard's
  // conjunctive walk is driven by its own rarest list).
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    const auto snap = shard->snapshot();
    const InvertedIndex& inverted = snap->indexes->inverted;
    uint64_t postings = 0;
    bool first = true;
    for (const TagId tag : query.tags) {
      const uint64_t df = inverted.DocumentFrequency(tag);
      if (query.mode == MatchMode::kAll) {
        postings = first ? df : std::min(postings, df);
        first = false;
      } else {
        postings += df;
      }
    }
    total += postings + snap->unindexed_items();
  }
  return total;
}

UserId ShardedSearchService::OwnerOf(ItemId item) const {
  const ShardRef ref = Locate(item);
  return shards_[ref.shard]->store().owner(ref.local);
}

std::vector<TagId> ShardedSearchService::TagsOf(ItemId item) const {
  const ShardRef ref = Locate(item);
  const auto tags = shards_[ref.shard]->store().tags(ref.local);
  return std::vector<TagId>(tags.begin(), tags.end());
}

std::vector<UserId> ShardedSearchService::FriendsOf(UserId user) const {
  // Pin the provider's generation: the span must not dangle if a
  // concurrent friendship edit publishes a new graph mid-copy.
  const ProximityProvider::GraphView view = provider_->Acquire();
  const auto friends = view.graph->Friends(user);
  return std::vector<UserId>(friends.begin(), friends.end());
}

std::string ShardedSearchService::StatsSummary() const {
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

}  // namespace amici
