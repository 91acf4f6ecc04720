// The rewrite rules: local algebraic transforms over LinOp trees,
// committed by one fixed-order bottom-up pass.  matrix/rewrite.h keeps
// the on/off toggle, caching and the public Rewrite()/MaybeRewrite()
// entry points.
//
// Canonicalizer commits each rule in place (identity elimination,
// scale/row-weight hoisting, the Kronecker mixed-product identity,
// guarded CSR fusion, stack flattening and run merging).  The order and
// the sparse-fuse guards below are part of the bitwise-reproducibility
// contract: changing either changes which trees `EKTELO_REWRITE=1`
// emits, and with them the inference outputs the goldens pin.
#ifndef EKTELO_MATRIX_RULES_H_
#define EKTELO_MATRIX_RULES_H_

#include <cstddef>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "linalg/vec.h"
#include "matrix/linop.h"

namespace ektelo {
namespace rules {

/// Budget for eagerly multiplying two CSR leaves during rewriting: the
/// update count of the row-wise product (CsrMatrix::MatmulUpdateBound)
/// must stay within this, so canonicalization never stalls a solver
/// thread on an enormous sparse matmul.
inline constexpr std::size_t kSparseFuseMaxUpdates = std::size_t{1} << 24;

/// No-denser-than-factors rule: a fused product leaf is kept only when
/// nnz(AB) <= ratio * (nnz(A) + nnz(B)).  At 1.0 the per-apply cost can
/// only improve — e.g. P P^T of a partition collapses to a diagonal.
inline constexpr double kSparseFuseMaxDensityRatio = 1.0;

/// The update-count budget of the sparse-fuse rule.
inline bool SparseFuseWithinBudget(std::size_t update_bound) {
  return update_bound <= kSparseFuseMaxUpdates;
}

/// The no-denser-than-factors guard of the sparse-fuse rule.
inline bool SparseFuseKeepsDensity(std::size_t fused_nnz, std::size_t nnz_a,
                                   std::size_t nnz_b) {
  return double(fused_nnz) <=
         kSparseFuseMaxDensityRatio * double(nnz_a + nnz_b);
}

template <typename T>
std::shared_ptr<const T> OpAs(const LinOpPtr& p) {
  return std::dynamic_pointer_cast<const T>(p);
}

/// The fixed-order canonicalizing pass (formerly rewrite.cc's Rewriter).
/// Run() memoizes by node identity, so shared subtrees rewrite once, and
/// returns the *original* pointer when nothing fires — preserving the
/// per-instance sensitivity/hash caches of an already-canonical tree.
class Canonicalizer {
 public:
  LinOpPtr Run(const LinOpPtr& op);

 private:
  // The canonical constructors: each re-applies the local rules for one
  // node kind on already-rewritten children (never recursing into Run,
  // so termination is by structural descent only).
  LinOpPtr Scaled(LinOpPtr child, double c);
  LinOpPtr RowWeighted(LinOpPtr child, Vec w);
  LinOpPtr Transposed(const LinOpPtr& child);
  LinOpPtr Producted(LinOpPtr a, LinOpPtr b, bool binary_hint);
  LinOpPtr Kroned(LinOpPtr a, LinOpPtr b);
  LinOpPtr VStacked(std::vector<LinOpPtr> children);
  LinOpPtr HStacked(std::vector<LinOpPtr> children);
  LinOpPtr Summed(std::vector<LinOpPtr> children);

  LinOpPtr Dispatch(const LinOpPtr& op);
  std::vector<LinOpPtr> RunAll(const std::vector<LinOpPtr>& cs);

  /// True when `out` is an n-ary node of the same class as `orig` whose
  /// children are exactly the (rewritten-in-place) originals.
  template <typename NaryOp>
  bool SameChildren(const LinOpPtr& out,
                    const std::shared_ptr<const NaryOp>& orig,
                    const std::vector<LinOpPtr>& rewritten) {
    auto oo = OpAs<NaryOp>(out);
    if (!oo || oo->children().size() != orig->children().size()) return false;
    for (std::size_t i = 0; i < rewritten.size(); ++i)
      if (rewritten[i] != orig->children()[i] ||
          oo->children()[i] != rewritten[i])
        return false;
    return true;
  }

  std::unordered_map<const LinOp*, std::pair<LinOpPtr, LinOpPtr>> memo_;
};

/// One full fixed-order pass over a tree (the body of ektelo::Rewrite).
LinOpPtr Canonicalize(const LinOpPtr& op);

}  // namespace rules
}  // namespace ektelo

#endif  // EKTELO_MATRIX_RULES_H_
