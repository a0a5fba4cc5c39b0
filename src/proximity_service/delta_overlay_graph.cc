#include "proximity_service/delta_overlay_graph.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace amici {

DeltaOverlayGraph::DeltaOverlayGraph(SocialGraph graph)
    : base_(graph.BaseGraph()) {
  if (!graph.has_overlay()) return;
  // Adopt an inherited patch (snapshot restore) row by row, so every row
  // gets a sequence number for the fold protocol.
  auto rows = std::make_shared<GraphOverlay::RowMap>();
  graph.overlay()->ForEachRow([&](UserId u, const GraphOverlay::Row& row) {
    rows->emplace(u, std::make_shared<const GraphOverlay::Row>(row));
    row_seq_[u] = ++last_seq_;
    ++patch_rows_;
    patch_slots_ += row.size();
    slot_delta_ += static_cast<int64_t>(row.size()) -
                   static_cast<int64_t>(base_.Degree(u));
  });
  if (!rows->empty()) rows_ = std::move(rows);
}

std::vector<UserId> DeltaOverlayGraph::CurrentRow(UserId u) const {
  if (rows_ != nullptr) {
    const auto it = rows_->find(u);
    if (it != rows_->end()) return *it->second;
  }
  const auto base_row = base_.Friends(u);
  return {base_row.begin(), base_row.end()};
}

void DeltaOverlayGraph::ApplyHalf(UserId u, UserId v, bool insert) {
  std::vector<UserId> row = CurrentRow(u);
  const auto it = std::lower_bound(row.begin(), row.end(), v);
  if (insert) {
    AMICI_CHECK(it == row.end() || *it != v) << "edge already present";
    row.insert(it, v);
  } else {
    AMICI_CHECK(it != row.end() && *it == v) << "no such edge";
    row.erase(it);
  }

  const bool patched_before = rows_ != nullptr && rows_->count(u) > 0;
  auto next = rows_ != nullptr
                  ? std::make_shared<GraphOverlay::RowMap>(*rows_)
                  : std::make_shared<GraphOverlay::RowMap>();
  if (patched_before) {
    patch_slots_ += row.size();
    patch_slots_ -= (*next)[u]->size();
  } else {
    ++patch_rows_;
    patch_slots_ += row.size();
  }
  (*next)[u] = std::make_shared<const GraphOverlay::Row>(std::move(row));
  rows_ = std::move(next);
  slot_delta_ += insert ? 1 : -1;
  row_seq_[u] = ++last_seq_;
}

SocialGraph DeltaOverlayGraph::Compose() const {
  if (patch_rows_ == 0) return base_;
  return SocialGraph(base_,
                     std::make_shared<const GraphOverlay>(rows_, slot_delta_));
}

DeltaOverlayGraph::FoldPin DeltaOverlayGraph::PinForFold() const {
  return FoldPin{last_seq_, Compose()};
}

size_t DeltaOverlayGraph::AdoptFolded(const FoldPin& pin,
                                      SocialGraph folded_base) {
  AMICI_CHECK(!folded_base.has_overlay());
  AMICI_CHECK(folded_base.num_users() == base_.num_users());
  base_ = std::move(folded_base);

  size_t folded = 0;
  patch_rows_ = 0;
  patch_slots_ = 0;
  slot_delta_ = 0;
  if (rows_ != nullptr) {
    auto kept = std::make_shared<GraphOverlay::RowMap>();
    for (const auto& [user, row] : *rows_) {
      // A row edited after the pin is NOT covered by the folded base;
      // keep it (it is a complete replacement, valid over any base).
      if (row_seq_.at(user) > pin.seq) {
        kept->emplace(user, row);
        ++patch_rows_;
        patch_slots_ += row->size();
        slot_delta_ += static_cast<int64_t>(row->size()) -
                       static_cast<int64_t>(base_.Degree(user));
      } else {
        ++folded;
      }
    }
    rows_ = kept->empty() ? nullptr : std::move(kept);
  }
  for (auto it = row_seq_.begin(); it != row_seq_.end();) {
    it = it->second <= pin.seq ? row_seq_.erase(it) : std::next(it);
  }
  return folded;
}

}  // namespace amici
