#include "graph/social_graph.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace amici {

GraphOverlay::GraphOverlay(std::shared_ptr<const RowMap> rows,
                           int64_t slot_delta)
    : rows_(std::move(rows)), slot_delta_(slot_delta) {
  AMICI_CHECK(rows_ != nullptr);
  for (const auto& [user, row] : *rows_) num_slots_ += row->size();
}

size_t GraphOverlay::MemoryBytes() const {
  // Rows dominate; the per-entry map overhead is approximated by the
  // node (key + two pointers) it costs in practice.
  size_t bytes = num_slots_ * sizeof(UserId);
  bytes += num_rows() * (sizeof(UserId) + 2 * sizeof(void*) +
                         sizeof(std::shared_ptr<const Row>));
  return bytes;
}

std::shared_ptr<const SocialGraph::Csr> SocialGraph::EmptyCsr() {
  static const std::shared_ptr<const Csr> empty = std::make_shared<Csr>();
  return empty;
}

SocialGraph::SocialGraph(std::vector<uint64_t> offsets,
                         std::vector<UserId> neighbors) {
  AMICI_CHECK(!offsets.empty()) << "offsets must have num_users + 1 entries";
  AMICI_CHECK(offsets.front() == 0);
  AMICI_CHECK(offsets.back() == neighbors.size());
  auto csr = std::make_shared<Csr>();
  csr->offsets = std::move(offsets);
  csr->neighbors = std::move(neighbors);
  csr_ = std::move(csr);
}

SocialGraph::SocialGraph(const SocialGraph& base,
                         std::shared_ptr<const GraphOverlay> overlay)
    : csr_(base.csr_), overlay_(std::move(overlay)) {
  AMICI_CHECK(overlay_ != nullptr);
  AMICI_CHECK(!base.has_overlay()) << "overlays do not stack; fold first";
}

bool SocialGraph::HasEdge(UserId u, UserId v) const {
  const auto friends = Friends(u);
  return std::binary_search(friends.begin(), friends.end(), v);
}

double SocialGraph::AverageDegree() const {
  if (num_users() == 0) return 0.0;
  return static_cast<double>(total_adjacency_slots()) /
         static_cast<double>(num_users());
}

size_t SocialGraph::MaxDegree() const {
  size_t best = 0;
  for (size_t u = 0; u < num_users(); ++u) {
    best = std::max(best, Degree(static_cast<UserId>(u)));
  }
  return best;
}

size_t SocialGraph::MemoryBytes() const {
  return csr_->offsets.capacity() * sizeof(uint64_t) +
         csr_->neighbors.capacity() * sizeof(UserId) +
         (overlay_ != nullptr ? overlay_->MemoryBytes() : 0);
}

SocialGraph SocialGraph::BaseGraph() const {
  SocialGraph base;
  base.csr_ = csr_;
  return base;
}

SocialGraph SocialGraph::Flatten() const {
  if (overlay_ == nullptr) return *this;
  const size_t users = num_users();
  std::vector<uint64_t> offsets;
  offsets.reserve(users + 1);
  std::vector<UserId> neighbors;
  neighbors.reserve(total_adjacency_slots());
  offsets.push_back(0);
  for (size_t u = 0; u < users; ++u) {
    const auto row = Friends(static_cast<UserId>(u));
    neighbors.insert(neighbors.end(), row.begin(), row.end());
    offsets.push_back(neighbors.size());
  }
  return SocialGraph(std::move(offsets), std::move(neighbors));
}

}  // namespace amici
