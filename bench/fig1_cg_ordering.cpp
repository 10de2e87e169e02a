// Figure 1: time to solve a thermal-style SPD system with CG + block Jacobi
// under the natural (scattered) ordering vs the RCM ordering, across core
// counts.
//
// thermal2 stand-in: a 2D 5-point mesh arriving with a random vertex
// labeling (thermal2's natural bandwidth is 1.226M on 1.2M rows — i.e.
// effectively scattered; RCM takes it to 795). We measure real CG
// iterations to 1e-8 with p diagonal blocks (PETSc: one block per process),
// analyze the actual SpMV halo for p ranks, and evaluate the alpha-beta-
// gamma time model. Expected shape: the RCM curve sits below the natural
// curve and the gap WIDENS with the core count (paper Sec. I).
#include <cstdio>
#include <vector>

#include "bench/suite.hpp"
#include "order/rcm_serial.hpp"
#include "rcm/rcm_driver.hpp"
#include "solver/block_jacobi.hpp"
#include "solver/cg.hpp"
#include "solver/dist_cg.hpp"
#include "solver/halo_analyzer.hpp"
#include "solver/solver_model.hpp"
#include "sparse/metrics.hpp"
#include "sparse/permute.hpp"

namespace {

std::vector<double> wavy_rhs(drcm::index_t n) {
  std::vector<double> b(static_cast<std::size_t>(n));
  for (drcm::index_t i = 0; i < n; ++i) {
    b[static_cast<std::size_t>(i)] =
        1.0 + 0.5 * static_cast<double>((i * 2654435761u) % 1000) / 1000.0;
  }
  return b;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace drcm;
  const double scale = bench::scale_from_args(argc, argv);
  const auto side = bench::scaled(scale, 150);

  // thermal2 stand-in: randomly-labeled 2D mesh, SPD values.
  const auto natural_pattern =
      sparse::gen::relabel_random(sparse::gen::grid2d(side, side), 42);
  const auto rcm_labels = order::rcm_serial(natural_pattern);
  const auto rcm_pattern =
      sparse::permute_symmetric(natural_pattern, rcm_labels);

  std::printf("Figure 1: CG + block Jacobi solve time, natural vs RCM "
              "ordering (thermal2 stand-in)\n");
  std::printf("mesh %lld x %lld  n=%lld  nnz=%lld  BW natural=%lld  "
              "BW RCM=%lld   (paper: 1.2M rows, BW 1,226,000 -> 795)\n\n",
              static_cast<long long>(side), static_cast<long long>(side),
              static_cast<long long>(natural_pattern.n()),
              static_cast<long long>(natural_pattern.nnz()),
              static_cast<long long>(sparse::bandwidth(natural_pattern)),
              static_cast<long long>(sparse::bandwidth(rcm_pattern)));

  std::printf("%6s %12s %12s %14s %14s %9s\n", "cores", "iters(nat)",
              "iters(rcm)", "time(nat) s", "time(rcm) s", "speedup");
  bench::rule(74);

  double prev_gap_ratio = 0.0;
  for (const int p : {1, 4, 16, 64, 256}) {
    solver::SolveTimeInputs in_nat, in_rcm;
    for (int which = 0; which < 2; ++which) {
      const auto& pattern = which == 0 ? natural_pattern : rcm_pattern;
      auto& in = which == 0 ? in_nat : in_rcm;
      const auto m = sparse::gen::with_laplacian_values(pattern, 0.02);
      solver::BlockJacobi pre(m, p);
      auto b = wavy_rhs(m.n());
      std::vector<double> x(b.size(), 0.0);
      solver::CgOptions opt;
      opt.rtol = 1e-8;
      const auto res = solver::pcg(m, b, x, &pre, opt);
      in.nnz = m.nnz();
      in.n = m.n();
      in.iterations = res.iterations;
      in.halo = solver::analyze_halo(pattern, p);
    }
    const double t_nat = solver::modeled_cg_seconds(in_nat);
    const double t_rcm = solver::modeled_cg_seconds(in_rcm);
    std::printf("%6d %12d %12d %14.4f %14.4f %8.2fx\n", p, in_nat.iterations,
                in_rcm.iterations, t_nat, t_rcm, t_nat / t_rcm);
    prev_gap_ratio = t_nat / t_rcm;
  }
  bench::rule(74);
  std::printf("shape check: speedup grows with cores (paper: the RCM "
              "benefit increases with concurrency); final ratio %.2fx\n\n",
              prev_gap_ratio);

  // Validation: REAL distributed runs at p = 4 (thread-backed ranks).
  //   natural — dist_pcg on the unordered matrix's row blocks (sliced
  //             outside the ranks);
  //   RCM     — the fully distributed pipeline in ONE call: RCM on the 2D
  //             grid, value-carrying redistribute, 2D->1D re-owning,
  //             distributed-matrix CG. No replicated CSR between ordering
  //             and solution; the mpsim ledger bounds every rank's peak.
  std::printf("validation, real distributed runs (p=4, rtol 1e-8):\n");
  const auto m_nat = sparse::gen::with_laplacian_values(natural_pattern, 0.02);
  const auto b = wavy_rhs(m_nat.n());
  solver::CgOptions opt;
  opt.rtol = 1e-8;

  const auto nat = solver::run_dist_pcg(4, m_nat, b, /*precondition=*/true, opt);
  const auto nat_agg = nat.report.aggregate(mps::Phase::kSolver);
  std::printf("  %-14s iters=%4d converged=%s words-moved(max rank)=%llu "
              "modeled=%.4fs peak-resident=%llu\n",
              "natural", nat.result.iterations,
              nat.result.converged ? "yes" : "no",
              static_cast<unsigned long long>(nat_agg.max.words),
              nat_agg.max.model_total(),
              static_cast<unsigned long long>(nat.report.max_peak_resident()));

  const auto rcm =
      rcm::run_ordered_solve_recoverable(4, {.matrix = &m_nat, .b = b, .cg = opt});
  const auto rcm_agg = rcm.report.aggregate(mps::Phase::kSolver);
  std::printf("  %-14s iters=%4d converged=%s words-moved(max rank)=%llu "
              "modeled=%.4fs peak-resident=%llu BW=%lld\n",
              "RCM(pipeline)", rcm.result.cg.iterations,
              rcm.result.cg.converged ? "yes" : "no",
              static_cast<unsigned long long>(rcm_agg.max.words),
              rcm_agg.max.model_total(),
              static_cast<unsigned long long>(rcm.report.max_peak_resident()),
              static_cast<long long>(rcm.result.permuted_bandwidth));

  // Failure propagation for the CI smoke run: the pipeline must converge
  // and reproduce the serial RCM bandwidth.
  if (!nat.result.converged || !rcm.result.cg.converged) {
    std::printf("ERROR: a distributed solve did not converge\n");
    return 1;
  }
  if (rcm.result.permuted_bandwidth != sparse::bandwidth(rcm_pattern)) {
    std::printf("ERROR: pipeline bandwidth %lld != serial RCM bandwidth %lld\n",
                static_cast<long long>(rcm.result.permuted_bandwidth),
                static_cast<long long>(sparse::bandwidth(rcm_pattern)));
    return 1;
  }
  return 0;
}
