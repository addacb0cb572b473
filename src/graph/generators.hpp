// Random graph generators. The paper's overlays start as k-regular graphs
// ("we simulate the node deletion process in a k-regular graph,
// k = 5, 10, 15, of 5000 nodes" — Section V-B).
#pragma once

#include <cstddef>

#include "common/rng.hpp"
#include "graph/graph.hpp"

namespace onion::graph {

/// Uniform-ish random simple k-regular graph on n nodes via the
/// configuration model with edge-swap repair of clashes. Requirements:
/// n > k, and n*k even; throws std::invalid_argument otherwise.
///
/// Draw-order contract (every seeded overlay, and so every golden,
/// depends on it): per attempt, one shuffle of the n*k stubs; stub pairs
/// (2i, 2i+1) become edges in order unless they clash (self-loop or
/// duplicate). Each clash {u,v}, in order, then draws up to 200 times:
/// an index i = uniform(num_edges) into the edge list "for a ascending,
/// for b in neighbors(a) in adjacency order, if a < b", then a fair coin
/// that swaps the pair. The first compatible draw {a,b} is replaced by
/// {u,a} and {v,b}. A clash left unfixed restarts on a fresh graph with
/// the same Rng (50 attempts, then std::runtime_error). The returned
/// adjacency order is part of the contract; it is what this sequence of
/// Graph::add_edge / remove_edge calls leaves behind. Cost: O(nk) for
/// the pairing plus O(log n + k) per repair draw.
Graph random_regular(std::size_t n, std::size_t k, Rng& rng);

/// G(n, p) Erdős–Rényi graph (used by tests and ablations).
Graph erdos_renyi(std::size_t n, double p, Rng& rng);

}  // namespace onion::graph
