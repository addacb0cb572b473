// Compares two graph::DynamicConnectivity structures that track slots of
// one graph: same tracked slots and edge count, same component count and
// largest component, the same partition into components, and size
// records that agree with that partition (so the size multisets match
// too). Internal component ids may differ. Both structures must be
// settled. Used by the differential tests in tests/dynconn_test.cpp and
// tests/tracker_test.cpp that compare one settle after many deletions
// with settling after every removal, and by the bulk-attach test.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "graph/dynamic_connectivity.hpp"

namespace onion::graph {

/// Canonical partition: each tracked slot mapped to the smallest slot in
/// its component (kInvalidNode for untracked), so two structures compare
/// equal iff they partition alike. O(slots × components).
inline std::vector<NodeId> partition_of(const DynamicConnectivity& dc,
                                        std::size_t capacity) {
  std::vector<NodeId> rep(capacity, kInvalidNode);
  std::vector<NodeId> firsts;  // smallest slot of each component so far
  for (NodeId u = 0; u < capacity; ++u) {
    if (!dc.tracked(u)) continue;
    const auto it = std::find_if(firsts.begin(), firsts.end(), [&](NodeId f) {
      return dc.same_component(u, f);
    });
    if (it != firsts.end()) {
      rep[u] = *it;
    } else {
      rep[u] = u;
      firsts.push_back(u);
    }
  }
  return rep;
}

/// Asserts that `dc`'s counters and size records describe `rep`.
inline void expect_consistent(const DynamicConnectivity& dc,
                              const std::vector<NodeId>& rep,
                              const std::string& where) {
  std::vector<std::uint64_t> size(rep.size(), 0);
  for (const NodeId r : rep)
    if (r != kInvalidNode) ++size[r];
  std::uint64_t components = 0;
  std::uint64_t largest = 0;
  for (NodeId u = 0; u < rep.size(); ++u) {
    if (rep[u] == kInvalidNode) continue;
    ASSERT_EQ(dc.component_size(u), size[rep[u]]) << where << " u=" << u;
    if (rep[u] == u) ++components;
    largest = std::max(largest, size[u]);
  }
  ASSERT_EQ(dc.components(), components) << where;
  ASSERT_EQ(dc.largest_component(), largest) << where;
}

inline void expect_same_components(const DynamicConnectivity& a,
                                   const DynamicConnectivity& b,
                                   std::size_t capacity,
                                   const std::string& where) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices()) << where;
  ASSERT_EQ(a.num_edges(), b.num_edges()) << where;
  ASSERT_EQ(a.components(), b.components()) << where;
  ASSERT_EQ(a.largest_component(), b.largest_component()) << where;
  for (NodeId u = 0; u < capacity; ++u)
    ASSERT_EQ(a.tracked(u), b.tracked(u)) << where << " u=" << u;
  const std::vector<NodeId> rep = partition_of(a, capacity);
  ASSERT_EQ(rep, partition_of(b, capacity)) << where;
  expect_consistent(a, rep, where + " (first)");
  expect_consistent(b, rep, where + " (second)");
}

}  // namespace onion::graph
