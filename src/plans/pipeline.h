// Stage-level plan composition mirroring the paper's operator color
// classes (Fig. 2): a PipelinePlan is a declarative sequence of
//
//   PartitionBy  — data-adaptive partition selection + reduce (PA/PD TR)
//   Select       — choose the measurement strategy matrix (S*)
//   Measure      — Vector Laplace of the strategy (LM)
//   Infer        — global inference over all measurements (LS / clamps)
//
// Infer(kLeastSquares) runs LeastSquaresInference once over the composed
// stack, which picks the solver from the stack's structure (ops/tree_ls.h):
// the exact laminar tree solve for hierarchies, grids and partition-
// reduced strategies — Product(X, P) with P the reduction — the exact
// orthogonal-row solve for wavelets, the exact row-space solve for small
// range workloads, and LSMR for everything else.
//
// threaded through a shared StageContext.  The context tracks the current
// protected handle (partition stages repoint it at the reduced source),
// the current BudgetScope (partition stages split it), the workload as
// remapped onto the reduced domain, and the composition operator back to
// the original domain — so inference always runs globally, per the
// consistent-inference discipline of Thm. 5.3.
//
// The Fig. 2 single-shot plans are one-liners on top of this:
//
//   Pipeline "DAWA" = { PartitionBy(Dawa, 0.25, remap), Select(GreedyH),
//                       Measure(), Infer(kLeastSquares) }
//
// Iterative plans (MWEM) and parallel-composition plans (grids, stripes)
// implement Plan directly over the typed handles instead.
#ifndef EKTELO_PLANS_PIPELINE_H_
#define EKTELO_PLANS_PIPELINE_H_

#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "matrix/partition.h"
#include "ops/measurement.h"
#include "plans/registry.h"

namespace ektelo {

/// Mutable execution state shared by the stages of one pipeline run.
struct StageContext {
  const PlanInput* in = nullptr;
  MatrixMode mode = MatrixMode::kImplicit;

  /// Current protected data: starts at the plan's input vector; partition
  /// stages repoint it at the reduced source they derive.
  const ProtectedVector* data = nullptr;
  std::vector<std::size_t> dims;  // current domain shape
  std::size_t n() const {
    std::size_t total = 1;
    for (std::size_t d : dims) total *= d;
    return total;
  }

  /// Current budget allowance; partition stages replace it with the
  /// post-selection sub-scope.
  BudgetScope* scope = nullptr;

  /// Current range workload (interval partition stages remap it).
  std::vector<RangeQuery> ranges;

  /// Set by partition stages: the reduction P (mode-converted) whose
  /// composition maps current-domain measurements back onto the original
  /// domain, the partition itself, and optional public per-cell volumes
  /// for density-aware expansion (DAWA after workload reduction).
  LinOpPtr reduce_op;
  std::optional<Partition> partition;
  Vec cell_volumes;

  LinOpPtr strategy;    // set by Select (already mode-converted)
  MeasurementSet mset;  // measurements, expressed on their measure-time
                        // domain
  /// Parallel to mset.items(): the reduce_op in force when each
  /// measurement was taken (null = original domain), so Infer composes
  /// every measurement with exactly the reductions applied before it —
  /// not with later ones.
  std::vector<LinOpPtr> mset_reduce;
  Vec estimate;         // set by Infer

  // Keep-alive storage for handles/scopes derived mid-pipeline.
  std::deque<ProtectedVector> derived;
  std::deque<BudgetScope> scopes;
};

using Stage = std::function<Status(StageContext&)>;

/// Strategy selector: builds the (implicit) measurement matrix from the
/// current context; Select applies the matrix mode.
using SelectFn = std::function<StatusOr<LinOpPtr>(const StageContext&)>;

/// Data-adaptive partition selector; spends `eps` through `scope`.
using PartitionFn = std::function<StatusOr<Partition>(
    StageContext&, double eps, BudgetScope& scope)>;

enum class InferKind {
  kNone,                 // estimate = raw answers of the last Measure
  kLeastSquares,         // precision-weighted global LS
  kClampedLeastSquares,  // LS followed by max(., 0) (AHP's post-process)
};

/// S*: sc.strategy = ApplyMode(fn(sc), sc.mode).
Stage Select(SelectFn fn);

/// LM: measure the selected strategy with the scope's entire remaining
/// allowance and append to the measurement set.
Stage Measure();

/// PA/PD + TR: split the scope {frac, 1-frac}, run `fn` on the selection
/// share, reduce the data by the resulting partition, and leave the
/// measurement share as the context's scope.  remap_ranges maps the range
/// workload through the partition (valid for interval partitions).
Stage PartitionBy(PartitionFn fn, double frac, bool remap_ranges);

/// LS / post-processing: produce the original-domain estimate from all
/// measurements (composing with the reduction, or volume-expanding when
/// public cell volumes are present).
Stage Infer(InferKind kind);

/// A Plan that runs a fixed stage sequence.
class PipelinePlan final : public Plan {
 public:
  PipelinePlan(std::string name, PlanTraits traits,
               std::vector<Stage> stages);

  StatusOr<Vec> Execute(const ProtectedVector& x, BudgetScope& scope,
                        const PlanInput& in) const override;

 private:
  std::vector<Stage> stages_;
};

}  // namespace ektelo

#endif  // EKTELO_PLANS_PIPELINE_H_
