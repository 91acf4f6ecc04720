// Conjugate gradient on the normal equations (CGNR): an alternative
// iterative least-squares backend to LSMR.  Same primitive-method
// requirements (mat-vec + transposed mat-vec), slightly different
// numerical behaviour: LSMR is more stable on ill-conditioned systems,
// CGNR is often a bit faster per iteration.  The ablation bench compares
// them; inference uses LSMR as in the paper wherever no exact solver
// (ops/tree_ls.h) applies.
//
// CgLeastSquares runs CG against A.Gram() as a first-class operator, so
// structured Grams (Kron of Grams, precomputed sparse/dense A^T A) cut the
// per-iteration cost without ever materializing A; CgSpd is the underlying
// SPD solver, usable with any symmetric positive (semi-)definite LinOp.
#ifndef EKTELO_MATRIX_CG_H_
#define EKTELO_MATRIX_CG_H_

#include <cstddef>

#include "matrix/linop.h"

namespace ektelo {

struct CgOptions {
  double tol = 1e-8;  // relative residual (in A^T r) tolerance
  std::size_t max_iters = 0;  // 0: auto (4 * min(m, n), at least 100)
};

struct CgResult {
  Vec x;
  std::size_t iterations = 0;
  double normal_residual_norm = 0.0;  // ||A^T (A x - b)||
};

/// Solve G x = b for symmetric positive (semi-)definite G by plain CG.
/// normal_residual_norm reports ||G x - b|| on exit.
CgResult CgSpd(const LinOp& g, const Vec& b, const CgOptions& opts = {});

/// Solve G X = B column by column for a panel of right-hand sides.  The
/// columns shard across the thread pool (each solve is independent), and
/// every column reproduces the single-RHS CgSpd bitwise at any thread
/// count.
std::vector<CgResult> CgSpdMulti(const LinOp& g, const Block& rhs,
                                 const CgOptions& opts = {});

/// Solve argmin_x ||A x - b||_2 via CG on A^T A x = A^T b, driven through
/// A.Gram() (never materializes A or A^T A unless the operator already is).
CgResult CgLeastSquares(const LinOp& a, const Vec& b,
                        const CgOptions& opts = {});

}  // namespace ektelo

#endif  // EKTELO_MATRIX_CG_H_
