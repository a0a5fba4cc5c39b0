#include "topk/topk_heap.h"

#include <algorithm>
#include <limits>

#include "util/logging.h"

namespace amici {

namespace {
/// Up-front reservation cap. k is caller-controlled (SearchRequest) and may
/// far exceed the candidates a query can offer; past this the heap grows
/// only with what is actually pushed.
constexpr size_t kMaxInitialReserve = 1024;
}  // namespace

TopKHeap::TopKHeap(size_t k) : k_(k) {
  AMICI_CHECK(k >= 1);
  heap_.reserve(std::min(k, kMaxInitialReserve));
}

bool TopKHeap::Worse(const Entry& a, const Entry& b) {
  if (a.score != b.score) return a.score < b.score;
  return a.item > b.item;
}

bool TopKHeap::Push(ItemId item, double score) {
  const Entry candidate{score, item};
  if (heap_.size() < k_) {
    heap_.push_back(candidate);
    // Min-heap: the *worst* entry sits on top, so the comparator must say
    // "a orders before b when a is better".
    std::push_heap(heap_.begin(), heap_.end(),
                   [](const Entry& a, const Entry& b) { return Worse(b, a); });
    return true;
  }
  if (!Worse(heap_.front(), candidate)) return false;
  std::pop_heap(heap_.begin(), heap_.end(),
                [](const Entry& a, const Entry& b) { return Worse(b, a); });
  heap_.back() = candidate;
  std::push_heap(heap_.begin(), heap_.end(),
                 [](const Entry& a, const Entry& b) { return Worse(b, a); });
  return true;
}

double TopKHeap::KthScore() const {
  if (heap_.size() < k_) return -std::numeric_limits<double>::infinity();
  return heap_.front().score;
}

std::vector<ScoredItem> TopKHeap::TakeSorted() {
  std::sort(heap_.begin(), heap_.end(), [](const Entry& a, const Entry& b) {
    return Worse(b, a);  // best first
  });
  std::vector<ScoredItem> out;
  out.reserve(heap_.size());
  for (const Entry& e : heap_) {
    out.push_back({e.item, static_cast<float>(e.score)});
  }
  heap_.clear();
  return out;
}

}  // namespace amici
