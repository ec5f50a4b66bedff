// Bounded top-k accumulator (min-heap) for ranked retrieval.
#ifndef TOPPRIV_SEARCH_TOPK_H_
#define TOPPRIV_SEARCH_TOPK_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "corpus/corpus.h"
#include "util/check.h"

namespace toppriv::search {

/// One ranked result.
struct ScoredDoc {
  corpus::DocId doc = 0;
  double score = 0.0;
};

/// Keeps the k highest-scoring documents seen so far; ties broken towards
/// lower doc ids for determinism.
class TopK {
 public:
  explicit TopK(size_t k) : k_(k) { TOPPRIV_CHECK_GT(k, 0u); }

  /// Offers a candidate; O(log k) when it qualifies.
  void Offer(corpus::DocId doc, double score) {
    if (heap_.size() < k_) {
      heap_.push_back({doc, score});
      std::push_heap(heap_.begin(), heap_.end(), Worse);
      return;
    }
    if (Better(ScoredDoc{doc, score}, heap_.front())) {
      std::pop_heap(heap_.begin(), heap_.end(), Worse);
      heap_.back() = {doc, score};
      std::push_heap(heap_.begin(), heap_.end(), Worse);
    }
  }

  /// Extracts results in descending score order (ascending doc on ties).
  std::vector<ScoredDoc> Finish() {
    std::sort(heap_.begin(), heap_.end(),
              [](const ScoredDoc& a, const ScoredDoc& b) { return Better(a, b); });
    std::vector<ScoredDoc> out = std::move(heap_);
    heap_.clear();
    return out;
  }

  size_t size() const { return heap_.size(); }

 private:
  /// True if a strictly outranks b.
  static bool Better(const ScoredDoc& a, const ScoredDoc& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.doc < b.doc;
  }
  /// Heap comparator: the *worst* element sits at the front.
  static bool Worse(const ScoredDoc& a, const ScoredDoc& b) {
    return Better(a, b);
  }

  size_t k_;
  std::vector<ScoredDoc> heap_;
};

}  // namespace toppriv::search

#endif  // TOPPRIV_SEARCH_TOPK_H_
