// Synthetic matrix/graph generators.
//
// The paper evaluates on SuiteSparse matrices that are not redistributable
// offline; these generators produce the structural stand-ins of
// bench/suite.hpp (same diameter regime, degree profile, and
// natural-ordering quality as each paper matrix), plus the elementary
// graphs the test suite uses as ground truth. All randomized generators are
// deterministic per seed.
//
// Every generator returns a symmetric, self-loop-free adjacency pattern
// (pattern-only CSR). `with_laplacian_values` turns a pattern into the SPD
// matrix the CG solver consumes.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "sparse/csr.hpp"

namespace drcm::sparse::gen {

// --- elementary graphs (test ground truth) ---------------------------------

CsrMatrix path(index_t n);
CsrMatrix cycle(index_t n);
/// Star with center 0 and n-1 leaves.
CsrMatrix star(index_t n);
CsrMatrix complete(index_t n);
/// Spine of `spine` vertices, each with `legs` pendant vertices.
CsrMatrix caterpillar(index_t spine, index_t legs);
/// Block-diagonal union of the given graphs (vertex ids offset in order).
CsrMatrix disjoint_union(const std::vector<CsrMatrix>& parts);
/// n isolated vertices.
CsrMatrix empty_graph(index_t n);

// --- mesh generators (paper's FEM/structural matrices) ---------------------

/// 2D nx-by-ny grid, 5-point stencil. Vertex (x, y) has id x*ny + y.
CsrMatrix grid2d(index_t nx, index_t ny);
/// 2D grid, 9-point stencil (diagonal neighbors too).
CsrMatrix grid2d_9pt(index_t nx, index_t ny);

enum class Stencil3d { k7, k27 };
/// 3D nx-by-ny-by-nz grid. Vertex (x, y, z) has id (x*ny + y)*nz + z.
CsrMatrix grid3d(index_t nx, index_t ny, index_t nz, Stencil3d s = Stencil3d::k7);

// --- random generators (paper's low-diameter matrices) ---------------------

/// Erdos-Renyi-style G(n, m) with m ~ n*avg_degree/2 distinct edges.
CsrMatrix erdos_renyi(index_t n, double avg_degree, u64 seed);

/// Graph500-style R-MAT with 2^scale vertices, symmetrized, deduplicated.
CsrMatrix rmat(int scale, index_t edges_per_vertex, u64 seed, double a = 0.57,
               double b = 0.19, double c = 0.19);

/// Random symmetric pattern confined to |i-j| <= half_bw with the given
/// fill fraction of the band.
CsrMatrix random_banded(index_t n, index_t half_bw, double fill, u64 seed);

/// Random geometric graph: n points uniform in the unit square, edges
/// between pairs within `radius` (grid-bucketed; O(n) for constant average
/// degree). Mesh-like structure without mesh regularity — the classic
/// "unstructured FEM" stand-in.
CsrMatrix random_geometric(index_t n, double radius, u64 seed);

/// Watts-Strogatz small world: ring lattice with k neighbors per side,
/// each edge rewired with probability beta. Formalizes the "mesh plus
/// long-range couplings" regime where RCM degrades gracefully.
CsrMatrix small_world(index_t n, index_t k, double beta, u64 seed);

// --- structural transforms --------------------------------------------------

/// KKT system [H A^T; A 0]: H is the given nh-by-nh pattern; A has
/// `constraints` rows, each coupling `arity` consecutive H-columns starting
/// at a stride-spread offset (nlpkkt-style block structure).
CsrMatrix kkt_system(const CsrMatrix& h, index_t constraints, index_t arity = 3);

/// Relabels vertices by a random permutation: turns a banded "natural"
/// ordering into the scattered ordering typical of application matrices
/// (how thermal2 arrives with bandwidth 1.2M).
CsrMatrix relabel_random(const CsrMatrix& a, u64 seed);

/// Adds ~frac*n random long-range edges: degrades RCM effectiveness the way
/// Serena's coupled reservoir physics does.
CsrMatrix add_random_long_edges(const CsrMatrix& a, double frac, u64 seed);

/// A + A^T pattern union (used to symmetrize directed generators/inputs).
CsrMatrix symmetrize(const CsrMatrix& a);

// --- solver matrices ---------------------------------------------------------

/// SPD matrix on the given adjacency pattern: diagonal added with value
/// degree(i) + shift, off-diagonals -1 (a shifted graph Laplacian; strictly
/// diagonally dominant, hence SPD).
CsrMatrix with_laplacian_values(const CsrMatrix& pattern, double shift = 1e-2);

}  // namespace drcm::sparse::gen
