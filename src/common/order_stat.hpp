// Fenwick (binary-indexed) trees for weighted rank/select. FenwickTree
// holds non-negative counts per index and maps a cumulative position
// back to the index that owns it in O(log n); OrderStatSet is the 0/1
// special case over a membership bitset. The scenario engine uses an
// OrderStatSet over the honest-alive slots so that picking a uniform
// victim at 500k nodes costs a tree walk instead of materializing the
// full ascending id vector, and the k-regular generator uses a weighted
// FenwickTree to resolve an edge-list index without listing the edges —
// both while drawing the *same* random index as the vector-based code
// they replace, so every output stays byte-identical.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace onion {

/// Point-update / prefix-sum / select tree over non-negative counts.
/// Builds and growth are linear; add, prefix and find are O(log n).
class FenwickTree {
 public:
  /// Number of elements.
  std::size_t size() const { return tree_.size() - 1; }

  /// Replaces the contents with `values` (element i = values[i]).
  template <typename Values>
  void assign(const Values& values) {
    tree_.assign(values.size() + 1, 0);
    for (std::size_t i = 0; i < values.size(); ++i)
      tree_[i + 1] = static_cast<std::size_t>(values[i]);
    propagate(1);
  }

  /// Appends zero-valued elements up to `n` in O(log size() + added).
  /// Valid mid-life: a new node's span can reach back into old indices,
  /// and the old nodes feeding it are exactly the prefix(size()) chain.
  void grow(std::size_t n) {
    const std::size_t old = size();
    if (n <= old) return;
    tree_.resize(n + 1, 0);
    for (std::size_t c = old; c > 0; c &= c - 1) {
      const std::size_t parent = c + lowbit(c);
      if (parent <= n) tree_[parent] += tree_[c];
    }
    propagate(old + 1);
  }

  /// Adds `delta` to element i (0-based). The element must stay >= 0.
  void add(std::size_t i, std::int64_t delta) {
    ONION_EXPECTS(i < size());
    for (++i; i < tree_.size(); i += lowbit(i))
      tree_[i] += static_cast<std::size_t>(delta);  // modular for delta < 0
  }

  /// Sum of elements [0, i). Precondition: i <= size().
  std::size_t prefix(std::size_t i) const {
    std::size_t s = 0;
    for (; i > 0; i &= i - 1) s += tree_[i];
    return s;
  }

  /// Index of the element holding cumulative position k: the i with
  /// prefix(i) <= k < prefix(i + 1). Writes k - prefix(i) to *offset
  /// when non-null. Precondition: k < prefix(size()).
  std::size_t find(std::size_t k, std::size_t* offset = nullptr) const {
    std::size_t pos = 0;
    std::size_t step = 1;
    while ((step << 1) <= size()) step <<= 1;
    for (; step > 0; step >>= 1) {
      const std::size_t next = pos + step;
      if (next <= size() && tree_[next] <= k) {
        pos = next;
        k -= tree_[next];
      }
    }
    ONION_ENSURES_MSG(pos < size(), "position past the total");
    if (offset != nullptr) *offset = k;
    return pos;  // 1-based prefix length pos => 0-based element pos
  }

 private:
  static std::size_t lowbit(std::size_t i) { return i & (~i + 1); }

  /// Pushes every node from `first` on into its parent, ascending, so
  /// each node's span sum is final before it feeds the next level.
  void propagate(std::size_t first) {
    for (std::size_t i = first; i < tree_.size(); ++i) {
      const std::size_t parent = i + lowbit(i);
      if (parent < tree_.size()) tree_[parent] += tree_[i];
    }
  }

  std::vector<std::size_t> tree_{0};  // 1-indexed; tree_[0] unused
};

/// Dynamic set of small integers with rank/select, backed by a Fenwick
/// tree of 0/1 counts. Indices are slot ids; grow-only capacity.
class OrderStatSet {
 public:
  explicit OrderStatSet(std::size_t capacity = 0) { ensure_size(capacity); }

  std::size_t capacity() const { return bits_.size(); }
  std::size_t count() const { return count_; }

  bool test(std::size_t i) const {
    return i < bits_.size() && bits_[i] != 0;
  }

  /// Replaces the membership with `bits` (1 = member, else 0) in O(n).
  void assign(std::vector<std::uint8_t> bits) {
    bits_ = std::move(bits);
    count_ = 0;
    for (const std::uint8_t b : bits_) count_ += b;
    tree_.assign(bits_);
  }

  /// Grows capacity (new slots absent) in O(log n + added), valid
  /// mid-life as well as on an empty set.
  void ensure_size(std::size_t capacity) {
    if (capacity <= bits_.size()) return;
    bits_.resize(capacity, 0);
    tree_.grow(capacity);
  }

  void set(std::size_t i) {
    ONION_EXPECTS(i < bits_.size());
    if (bits_[i]) return;
    bits_[i] = 1;
    ++count_;
    tree_.add(i, +1);
  }

  void clear(std::size_t i) {
    ONION_EXPECTS(i < bits_.size());
    if (!bits_[i]) return;
    bits_[i] = 0;
    --count_;
    tree_.add(i, -1);
  }

  /// Index of the k-th member (0-based, ascending). Precondition:
  /// k < count(). Equivalent to sorted_members()[k] without building it.
  std::size_t select(std::size_t k) const {
    ONION_EXPECTS_MSG(k < count_, "k=" << k << " count=" << count_);
    return tree_.find(k);
  }

  /// Number of members with index < i.
  std::size_t rank(std::size_t i) const {
    return tree_.prefix(i < bits_.size() ? i : bits_.size());
  }

 private:
  std::vector<std::uint8_t> bits_;
  FenwickTree tree_;
  std::size_t count_ = 0;
};

}  // namespace onion
