// Disjoint-set forest with union by size and path halving. Used by
// graph::first_partition_index (the partition-threshold experiment of
// Figure 6), by scenario::sweep_structural (the from-scratch snapshot
// oracle) and by the rebuild oracle in tests/dynconn_test.cpp.
#pragma once

#include <cstddef>
#include <numeric>
#include <vector>

#include "common/check.hpp"

namespace onion::graph {

/// Union-find over indices 0..n-1.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n), size_(n, 1), sets_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }

  /// Number of elements in the universe.
  std::size_t size() const { return parent_.size(); }

  /// Representative of x's set.
  std::size_t find(std::size_t x) {
    ONION_EXPECTS(x < parent_.size());
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];  // path halving
      x = parent_[x];
    }
    return x;
  }

  /// Merges the sets of a and b; returns true if they were distinct.
  bool unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
    --sets_;
    return true;
  }

  bool same(std::size_t a, std::size_t b) { return find(a) == find(b); }

  /// Number of disjoint sets over the FULL index range — every element
  /// of the universe counts, including slots a caller considers dead
  /// (graph tombstones, removed bots). Callers tracking a live subset
  /// must subtract their dead-singleton count or count components by
  /// live members only (scenario::sweep_structural does); reading
  /// num_sets() raw over a tombstoned slot table silently inflates the
  /// component count.
  std::size_t num_sets() const { return sets_; }

  /// Size of the set containing x.
  std::size_t set_size(std::size_t x) { return size_[find(x)]; }

 private:
  std::vector<std::size_t> parent_;
  std::vector<std::size_t> size_;
  std::size_t sets_;
};

}  // namespace onion::graph
