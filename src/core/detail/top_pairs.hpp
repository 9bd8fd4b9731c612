// Internal: bounded top-k selection of ranked LD pairs.
//
// A max-heap under ranks_before keeps the k best pairs seen so far with the
// worst of them at the front, so each offered value costs one comparison
// against that floor unless it displaces the front (O(log k)). Memory is
// O(k) however many pairs stream past. Selection is exact: the kept set is
// the k best of the offered pairs under a total order, independent of the
// order they were offered in, which is what makes the parallel top-k sink
// (tile-local selectors merged under a lock) thread-count invariant.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "core/ld.hpp"

namespace ldla::detail {

class TopPairSelector {
 public:
  explicit TopPairSelector(std::size_t k) : k_(k) {}

  /// Keep `p` if it ranks among the k best so far. Non-finite values (NaN
  /// for monomorphic SNPs) are never ranked.
  void offer(const RankedPair& p) {
    if (k_ == 0 || !std::isfinite(p.value)) return;
    if (heap_.size() < k_) {
      heap_.push_back(p);
      std::push_heap(heap_.begin(), heap_.end(), ranks_before);
    } else if (ranks_before(p, heap_.front())) {
      std::pop_heap(heap_.begin(), heap_.end(), ranks_before);
      heap_.back() = p;
      std::push_heap(heap_.begin(), heap_.end(), ranks_before);
    }
  }

  /// Offer pairs (i, col_begin + j) with values[j] for j in [0, cols).
  void offer_row(std::size_t i, std::size_t col_begin, const double* values,
                 std::size_t cols) {
    if (k_ == 0) return;
    for (std::size_t j = 0; j < cols; ++j) {
      const double v = values[j];
      // Once full, anything below the floor cannot enter; NaN fails the
      // comparison too. Ties with the floor go to offer's full order.
      if (heap_.size() == k_ && !(v >= heap_.front().value)) continue;
      offer({i, col_begin + j, v});
    }
  }

  void merge(const TopPairSelector& other) {
    for (const RankedPair& p : other.heap_) offer(p);
  }

  /// The kept pairs, best first (ranks_before order).
  [[nodiscard]] std::vector<RankedPair> sorted() && {
    std::sort_heap(heap_.begin(), heap_.end(), ranks_before);
    return std::move(heap_);
  }

 private:
  std::size_t k_;
  std::vector<RankedPair> heap_;
};

}  // namespace ldla::detail
