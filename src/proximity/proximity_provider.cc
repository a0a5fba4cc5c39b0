#include "proximity/proximity_provider.h"

#include <utility>
#include <vector>

#include "proximity/ppr_forward_push.h"
#include "proximity/single_flight_proximity.h"
#include "proximity/warm_over_worker.h"
#include "util/logging.h"

namespace amici {

namespace {

/// The one statement of the edit-validation rules; EditEdge and the
/// ValidateEdit preview both apply exactly this.
Status ValidateEditAgainst(const SocialGraph& graph, UserId u, UserId v,
                           bool adding, bool check_existence) {
  if (u >= graph.num_users() || v >= graph.num_users()) {
    return Status::InvalidArgument("friendship endpoint outside the graph");
  }
  if (u == v) return Status::InvalidArgument("self-friendship is not a thing");
  if (!check_existence) return Status::Ok();
  if (adding && graph.HasEdge(u, v)) {
    return Status::AlreadyExists("friendship already present");
  }
  if (!adding && !graph.HasEdge(u, v)) {
    return Status::NotFound("no such friendship");
  }
  return Status::Ok();
}

}  // namespace

ProximityProvider::ProximityProvider(SocialGraph graph, Options options)
    : model_(options.model != nullptr
                 ? std::move(options.model)
                 : std::make_shared<PprForwardPush>(/*restart_prob=*/0.15,
                                                    /*epsilon=*/1e-4)),
      fold_policy_(options.fold_policy),
      warm_top_n_(options.warm_top_n),
      delta_(std::move(graph)),
      flight_(std::make_unique<SingleFlightProximity>(
          model_.get(), options.cache_capacity)) {
  state_.store(std::make_shared<const GraphView>(
      GraphView{std::make_shared<const SocialGraph>(delta_.Compose()), 0}));
  if (warm_top_n_ > 0) {
    warm_ = std::make_unique<WarmOverWorker>(
        [this](const GraphView& view, UserId user) {
          ProximityOutcome outcome;
          (void)flight_->Get(*view.graph, user, view.generation, &outcome);
          if (outcome == ProximityOutcome::kComputed) {
            warmed_.fetch_add(1, std::memory_order_relaxed);
          }
        });
  }
}

ProximityProvider::~ProximityProvider() = default;

std::shared_ptr<const ProximityVector> ProximityProvider::GetProximity(
    const SocialGraph& graph, UserId source, uint64_t generation,
    ProximityOutcome* outcome) {
  return flight_->Get(graph, source, generation, outcome);
}

Status ProximityProvider::ValidateEdit(UserId u, UserId v, bool adding,
                                       bool check_existence) const {
  const std::shared_ptr<const GraphView> cur = state_.load();
  return ValidateEditAgainst(*cur->graph, u, v, adding, check_existence);
}

Status ProximityProvider::EditEdge(UserId u, UserId v, bool insert) {
  bool should_fold = false;
  {
    std::lock_guard<std::mutex> lock(writer_mutex_);
    const std::shared_ptr<const GraphView> cur = state_.load();
    AMICI_RETURN_IF_ERROR(ValidateEditAgainst(*cur->graph, u, v, insert,
                                              /*check_existence=*/true));

    // Snapshot the warm-over candidates BEFORE publishing: the hottest
    // users of the RETIRING generation are exactly the ones worth paying
    // for against the new graph.
    std::vector<UserId> hottest;
    if (warm_ != nullptr) hottest = flight_->cache().HottestUsers(warm_top_n_);

    // O(deg(u) + deg(v)): replace the two endpoint rows in the patch.
    delta_.ApplyHalf(u, v, insert);
    delta_.ApplyHalf(v, u, insert);

    auto next = std::make_shared<const GraphView>(
        GraphView{std::make_shared<const SocialGraph>(delta_.Compose()),
                  cur->generation + 1});
    state_.store(next);
    generations_.fetch_add(1, std::memory_order_relaxed);
    // No cache flush: entries are keyed by generation, so stale vectors
    // can neither hit nor survive the first new-generation access.

    if (warm_ != nullptr) warm_->Submit(*next, std::move(hottest));

    should_fold = fold_policy_.ShouldFold(delta_.signals());
  }
  if (should_fold) FoldOverlay();
  return Status::Ok();
}

Status ProximityProvider::AddFriendship(UserId u, UserId v) {
  return EditEdge(u, v, /*insert=*/true);
}

Status ProximityProvider::RemoveFriendship(UserId u, UserId v) {
  return EditEdge(u, v, /*insert=*/false);
}

size_t ProximityProvider::FoldOverlay() {
  std::unique_lock<std::mutex> lock(writer_mutex_);
  if (delta_.signals().patch_rows == 0) return 0;
  const DeltaOverlayGraph::FoldPin pin = delta_.PinForFold();
  lock.unlock();
  // The O(U + E) rebuild runs off the writer lock: concurrent edits keep
  // landing (their rows outlive the fold via the pin's sequence number)
  // and readers keep serving the published view.
  SocialGraph folded = pin.view.Flatten();
  lock.lock();
  const size_t rows = delta_.AdoptFolded(pin, std::move(folded));
  // Republish the CURRENT generation over the folded representation —
  // the graph content is unchanged, so this must not look like an edit
  // to generation-keyed caches or pinned snapshots.
  const std::shared_ptr<const GraphView> cur = state_.load();
  state_.store(std::make_shared<const GraphView>(
      GraphView{std::make_shared<const SocialGraph>(delta_.Compose()),
                cur->generation}));
  folds_.fetch_add(1, std::memory_order_relaxed);
  return rows;
}

ProximityProviderStats ProximityProvider::stats() const {
  ProximityProviderStats stats;
  stats.computations = flight_->computations();
  stats.cache_hits = flight_->cache().hits();
  stats.inflight_joins = flight_->inflight_joins();
  stats.warmed = warmed_.load(std::memory_order_relaxed);
  stats.generations_published =
      generations_.load(std::memory_order_relaxed);
  stats.cache_entries = flight_->cache().size();
  stats.overlay_folds = folds_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(writer_mutex_);
    stats.overlay_rows = delta_.signals().patch_rows;
  }
  return stats;
}

void ProximityProvider::WaitForWarmup() {
  if (warm_ != nullptr) warm_->WaitForWarmup();
}

}  // namespace amici
