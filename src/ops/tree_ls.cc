#include "ops/tree_ls.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "linalg/dense.h"
#include "matrix/combinators.h"
#include "matrix/implicit_ops.h"
#include "matrix/range_ops.h"
#include "matrix/rewrite.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace ektelo {

namespace {

using Index = uint32_t;
constexpr Index kNone = std::numeric_limits<Index>::max();

obs::Histogram& SolverSeconds(const char* labels) {
  return obs::Registry::Global().GetHistogram(
      "ektelo_solver_seconds", "Wall time of one solver call", labels);
}

// ------------------------------------------------------------ flattening

/// Leaf operators whose rows are indicator supports.
enum class LeafKind : uint8_t { kRanges, kRects, kIdentity, kOnes, kSparse };

/// A run of consecutive stacked rows produced by one leaf operator.
struct Block {
  LeafKind kind;
  const LinOp* leaf;
  std::size_t first_row;
};

/// The stack flattened into leaf blocks, each row's indicator multiple,
/// and the unit domain the supports index: the cells, or the groups of
/// the one partition reduction every measurement goes through.
struct Flat {
  std::size_t cells = 0;
  std::size_t units = 0;
  const SparseOp* reduce = nullptr;
  std::vector<Block> blocks;
  std::size_t rows = 0;
  Vec coef;  // per row; materialized only once some multiple is not 1
  bool all_intervals = true;
  // Units painted for implicit supports.  Explicit (sparse) rows are not
  // counted: painting them costs their nnz, which is input size already.
  std::size_t implicit_cells = 0;

  /// Coefficients of all rows so far, materializing the implicit ones.
  double* Coef() {
    coef.resize(rows, 1.0);
    return coef.data();
  }
};

/// A partition reduction: every row nonempty, every column at most one
/// entry, and that entry exactly 1.
bool IsPartitionReduce(const CsrMatrix& m) {
  std::vector<uint8_t> seen(m.cols(), 0);
  for (std::size_t g = 0; g < m.rows(); ++g) {
    if (m.indptr()[g] == m.indptr()[g + 1]) return false;
    for (std::size_t k = m.indptr()[g]; k < m.indptr()[g + 1]; ++k) {
      const std::size_t c = m.indices()[k];
      if (m.values()[k] != 1.0 || seen[c]) return false;
      seen[c] = 1;
    }
  }
  return true;
}

/// Rectangles covering whole grid rows, or lying in one, are intervals of
/// the row-major cell order.
bool RectIsInterval(const Rectangle& r, std::size_t ny) {
  return r.x_lo == r.x_hi || (r.y_lo == 0 && r.y_hi + 1 == ny);
}

bool AddLeaf(const LinOp& op, std::size_t units, Flat* f) {
  if (op.cols() != units) return false;
  Block b{LeafKind::kRanges, &op, f->rows};
  if (auto* rs = dynamic_cast<const RangeSetOp*>(&op)) {
    for (const Interval& iv : rs->ranges())
      f->implicit_cells += iv.hi - iv.lo + 1;
  } else if (auto* rect = dynamic_cast<const RectangleSetOp*>(&op)) {
    b.kind = LeafKind::kRects;
    for (const Rectangle& r : rect->rects()) {
      f->implicit_cells += (r.x_hi - r.x_lo + 1) * (r.y_hi - r.y_lo + 1);
      f->all_intervals = f->all_intervals && RectIsInterval(r, rect->ny());
    }
  } else if (dynamic_cast<const IdentityOp*>(&op) != nullptr) {
    b.kind = LeafKind::kIdentity;
    f->implicit_cells += op.rows();
  } else if (dynamic_cast<const OnesOp*>(&op) != nullptr) {
    b.kind = LeafKind::kOnes;
    f->implicit_cells += op.rows() * units;
  } else if (auto* sp = dynamic_cast<const SparseOp*>(&op)) {
    // Each row must be a positive multiple of an indicator, with sorted
    // distinct columns (the support is then a duplicate-free unit list).
    b.kind = LeafKind::kSparse;
    const CsrMatrix& m = sp->csr();
    for (std::size_t r = 0; r < m.rows(); ++r) {
      const std::size_t k0 = m.indptr()[r], k1 = m.indptr()[r + 1];
      if (k0 == k1 || !(m.values()[k0] > 0.0)) return false;
      for (std::size_t k = k0 + 1; k < k1; ++k)
        if (m.values()[k] != m.values()[k0] ||
            m.indices()[k] <= m.indices()[k - 1])
          return false;
      if (m.values()[k0] != 1.0) {
        f->rows = b.first_row + r;
        f->Coef();
        f->coef.push_back(m.values()[k0]);
      }
      f->all_intervals = f->all_intervals &&
                         m.indices()[k1 - 1] - m.indices()[k0] + 1 == k1 - k0;
    }
  } else {
    return false;
  }
  f->rows = b.first_row + op.rows();
  if (!f->coef.empty()) f->Coef();
  f->units = units;
  f->blocks.push_back(b);
  return true;
}

/// Appends op's rows to f.  False when some row is not a positive
/// multiple of an indicator over the stack's unit domain.  `reduced` is
/// true below a Product(X, P) with P the stack's partition reduction.
bool Walk(const LinOp& op, bool reduced, Flat* f) {
  const std::size_t first = f->rows;
  if (auto* s = dynamic_cast<const ScaleOp*>(&op)) {
    if (!(s->scale() > 0.0) || !Walk(*s->child(), reduced, f)) return false;
    double* coef = f->Coef();
    for (std::size_t r = first; r < f->rows; ++r) coef[r] *= s->scale();
    return true;
  }
  if (auto* w = dynamic_cast<const RowWeightOp*>(&op)) {
    if (!Walk(*w->child(), reduced, f)) return false;
    double* coef = f->Coef();
    for (std::size_t r = 0; r < w->rows(); ++r) {
      if (!(w->weights()[r] > 0.0)) return false;
      coef[first + r] *= w->weights()[r];
    }
    return true;
  }
  if (auto* v = dynamic_cast<const VStackOp*>(&op)) {
    for (const LinOpPtr& c : v->children())
      if (!Walk(*c, reduced, f)) return false;
    return true;
  }
  if (auto* p = dynamic_cast<const ProductOp*>(&op)) {
    // Product(X, P): X's rows index the groups of the partition P, and
    // the whole stack must go through that same P.
    auto* red = dynamic_cast<const SparseOp*>(p->b().get());
    if (reduced || red == nullptr) return false;
    if (f->reduce == nullptr) {
      if (!f->blocks.empty() || !IsPartitionReduce(red->csr())) return false;
      f->reduce = red;
    } else if (red != f->reduce && !red->StructuralEq(*f->reduce)) {
      return false;
    }
    return Walk(*p->a(), true, f);
  }
  if (f->reduce != nullptr && !reduced) return false;  // cells and groups
  return AddLeaf(op, reduced ? f->reduce->rows() : f->cells, f);
}

// ------------------------------------------------------- row supports

/// Block-local row r as the unit interval [lo, hi].  lo is the first unit
/// of every row; hi is its last only for contiguous rows.
void RowInterval(const Block& b, std::size_t r, std::size_t units, Index* lo,
                 Index* hi) {
  switch (b.kind) {
    case LeafKind::kRanges: {
      const Interval& iv =
          static_cast<const RangeSetOp*>(b.leaf)->ranges()[r];
      *lo = Index(iv.lo);
      *hi = Index(iv.hi);
      return;
    }
    case LeafKind::kRects: {
      auto* op = static_cast<const RectangleSetOp*>(b.leaf);
      const Rectangle& q = op->rects()[r];
      *lo = Index(q.x_lo * op->ny() + q.y_lo);
      *hi = Index(q.x_hi * op->ny() + q.y_hi);
      return;
    }
    case LeafKind::kIdentity:
      *lo = *hi = Index(r);
      return;
    case LeafKind::kOnes:
      *lo = 0;
      *hi = Index(units - 1);
      return;
    case LeafKind::kSparse: {
      const CsrMatrix& m = static_cast<const SparseOp*>(b.leaf)->csr();
      *lo = Index(m.indices()[m.indptr()[r]]);
      *hi = Index(m.indices()[m.indptr()[r + 1] - 1]);
      return;
    }
  }
}

std::size_t RowSize(const Block& b, std::size_t r, std::size_t units) {
  switch (b.kind) {
    case LeafKind::kRects: {
      const Rectangle& q =
          static_cast<const RectangleSetOp*>(b.leaf)->rects()[r];
      return (q.x_hi - q.x_lo + 1) * (q.y_hi - q.y_lo + 1);
    }
    case LeafKind::kSparse: {
      const CsrMatrix& m = static_cast<const SparseOp*>(b.leaf)->csr();
      return m.indptr()[r + 1] - m.indptr()[r];
    }
    default: {
      Index lo, hi;
      RowInterval(b, r, units, &lo, &hi);
      return std::size_t(hi - lo) + 1;
    }
  }
}

/// Calls fn(unit) for every unit of block-local row r, in ascending order.
template <typename Fn>
void ForEachUnit(const Block& b, std::size_t r, std::size_t units, Fn&& fn) {
  switch (b.kind) {
    case LeafKind::kRects: {
      auto* op = static_cast<const RectangleSetOp*>(b.leaf);
      const Rectangle& q = op->rects()[r];
      for (std::size_t i = q.x_lo; i <= q.x_hi; ++i)
        for (std::size_t j = q.y_lo; j <= q.y_hi; ++j)
          fn(Index(i * op->ny() + j));
      return;
    }
    case LeafKind::kSparse: {
      const CsrMatrix& m = static_cast<const SparseOp*>(b.leaf)->csr();
      for (std::size_t k = m.indptr()[r]; k < m.indptr()[r + 1]; ++k)
        fn(Index(m.indices()[k]));
      return;
    }
    default: {
      Index lo, hi;
      RowInterval(b, r, units, &lo, &hi);
      for (Index u = lo; u <= hi; ++u) fn(u);
    }
  }
}

// ---------------------------------------------------------- the forest

/// A laminar stack's support forest, independent of noise scales and
/// answers: one forest serves every solve against a structurally equal
/// stack.
struct Forest {
  std::size_t cells = 0;
  std::vector<Index> parent;      // per node; parents precede children
  std::vector<Index> row_node;    // per stacked row: its support's node
  Vec row_coef;                   // per stacked row; empty = all 1
  std::vector<Index> atom_start;  // per node + 1: offsets into atom_cells
  std::vector<Index> atom_cells;  // cells of each node no child covers

  std::size_t Bytes() const {
    return (parent.size() + row_node.size() + atom_start.size() +
            atom_cells.size()) *
               sizeof(Index) +
           row_coef.size() * sizeof(double);
  }
};

/// What a builder derives over the unit domain: the node tree, each
/// row's node, and the deepest node holding each unit (kNone = none).
struct Shape {
  std::vector<Index> parent;
  std::vector<Index> row_node;
  std::vector<Index> deepest;
};

/// Rows 0 .. rows-1 stably ordered by key(r) in [0, buckets): a counting
/// sort.
template <typename Key>
std::vector<Index> OrderBy(std::size_t rows, std::size_t buckets, Key key) {
  std::vector<Index> start(buckets + 1, 0);
  for (std::size_t r = 0; r < rows; ++r) ++start[key(Index(r)) + 1];
  for (std::size_t k = 0; k < buckets; ++k) start[k + 1] += start[k];
  std::vector<Index> order(rows);
  for (std::size_t r = 0; r < rows; ++r)
    order[start[key(Index(r))]++] = Index(r);
  return order;
}

/// Interval supports in O(rows + units): order rows by (lo ascending, hi
/// descending) — a pre-order of the forest — and scan with a stack of
/// open ancestors.  Each node's uncovered gaps are handed out as its
/// children open and as it closes, so every unit is written once.
bool BuildIntervals(const Flat& f, Shape* s) {
  const std::size_t rows = f.rows, units = f.units;
  auto for_each_interval = [&](auto&& fn) {
    for (const Block& b : f.blocks)
      for (std::size_t r = 0; r < b.leaf->rows(); ++r) {
        Index lo, hi;
        RowInterval(b, r, units, &lo, &hi);
        fn(Index(b.first_row + r), lo, hi);
      }
  };
  // Counting sort by lo.  The supports sharing a lo are nested, so they
  // are few, and usually already listed outermost first (hierarchies
  // list levels top-down); sort any run that is not.
  struct Row {
    Index lo, hi, r;
  };
  std::vector<Index> start(units + 1, 0);
  for_each_interval([&](Index, Index lo, Index) { ++start[lo + 1]; });
  for (std::size_t u = 0; u < units; ++u) start[u + 1] += start[u];
  std::vector<Row> sorted(rows);
  for_each_interval(
      [&](Index r, Index lo, Index hi) { sorted[start[lo]++] = {lo, hi, r}; });
  auto outer_first = [](const Row& a, const Row& b) {
    return a.hi != b.hi ? a.hi > b.hi : a.r < b.r;
  };
  for (std::size_t k0 = 0, k = 1; k <= rows; ++k) {
    if (k < rows && sorted[k].lo == sorted[k0].lo) continue;
    if (!std::is_sorted(sorted.begin() + k0, sorted.begin() + k, outer_first))
      std::sort(sorted.begin() + k0, sorted.begin() + k, outer_first);
    k0 = k;
  }

  s->row_node.assign(rows, kNone);
  s->deepest.assign(units, kNone);
  s->parent.reserve(rows);
  std::vector<Index> node_hi, cursor, open;
  node_hi.reserve(rows);
  cursor.reserve(rows);
  auto hand_out = [&](Index v, Index from, Index to) {
    for (Index u = from; u < to; ++u) s->deepest[u] = v;
  };
  auto close = [&](Index v) {
    hand_out(v, cursor[v], node_hi[v] + 1);
    if (s->parent[v] != kNone) cursor[s->parent[v]] = node_hi[v] + 1;
  };
  Index last_lo = kNone;
  for (const Row& row : sorted) {
    if (!node_hi.empty() && row.lo == last_lo && row.hi == node_hi.back()) {
      s->row_node[row.r] = Index(node_hi.size() - 1);  // duplicate support
      continue;
    }
    while (!open.empty() && node_hi[open.back()] < row.lo) {
      close(open.back());
      open.pop_back();
    }
    const Index p = open.empty() ? kNone : open.back();
    if (p != kNone) {
      if (node_hi[p] < row.hi) return false;  // partial overlap
      hand_out(p, cursor[p], row.lo);
    }
    const Index v = Index(node_hi.size());
    s->parent.push_back(p);
    node_hi.push_back(row.hi);
    cursor.push_back(row.lo);
    open.push_back(v);
    last_lo = row.lo;
    s->row_node[row.r] = v;
  }
  while (!open.empty()) {
    close(open.back());
    open.pop_back();
  }
  return true;
}

/// Arbitrary supports in O(sum of sizes): visit rows largest first and
/// paint each onto the units.  Every unit of a support must currently
/// belong to the same deepest node — its parent — or it overlaps a larger
/// support partially.  A support as large as that parent is a duplicate.
bool BuildPaint(const Flat& f, Shape* s) {
  const std::size_t rows = f.rows, units = f.units;
  std::vector<Index> size(rows), row_block(rows);
  for (std::size_t bi = 0; bi < f.blocks.size(); ++bi) {
    const Block& b = f.blocks[bi];
    for (std::size_t r = 0; r < b.leaf->rows(); ++r) {
      size[b.first_row + r] = Index(RowSize(b, r, units));
      row_block[b.first_row + r] = Index(bi);
    }
  }
  const std::vector<Index> order =
      OrderBy(rows, units + 1, [&](Index r) { return units - size[r]; });

  s->row_node.assign(rows, kNone);
  s->deepest.assign(units, kNone);
  std::vector<Index> node_size;
  for (Index r : order) {
    const Block& b = f.blocks[row_block[r]];
    const std::size_t local = r - b.first_row;
    Index first_unit, unused;
    RowInterval(b, local, units, &first_unit, &unused);
    const Index owner = s->deepest[first_unit];
    bool nested = true;
    if (owner != kNone && node_size[owner] == size[r]) {
      ForEachUnit(b, local, units,
                  [&](Index u) { nested = nested && s->deepest[u] == owner; });
      if (!nested) return false;
      s->row_node[r] = owner;  // duplicate support
      continue;
    }
    const Index v = Index(node_size.size());
    ForEachUnit(b, local, units, [&](Index u) {
      nested = nested && s->deepest[u] == owner;
      s->deepest[u] = v;
    });
    if (!nested) return false;
    s->parent.push_back(owner);
    node_size.push_back(size[r]);
    s->row_node[r] = v;
  }
  return true;
}

/// Expands each node's uncovered units into its atom of cells.
std::shared_ptr<const Forest> Finish(Shape s, Flat* f) {
  auto forest = std::make_shared<Forest>();
  const std::size_t nodes = s.parent.size();
  const CsrMatrix* red = f->reduce ? &f->reduce->csr() : nullptr;
  std::vector<Index>& start = forest->atom_start;
  start.assign(nodes + 1, 0);
  for (std::size_t u = 0; u < f->units; ++u)
    if (s.deepest[u] != kNone)
      start[s.deepest[u] + 1] +=
          red ? Index(red->indptr()[u + 1] - red->indptr()[u]) : 1;
  for (std::size_t v = 0; v < nodes; ++v) start[v + 1] += start[v];
  // Fill with start[v] as node v's cursor, then shift the advanced
  // cursors (now each node's end) back into starts.
  forest->atom_cells.resize(start[nodes]);
  for (std::size_t u = 0; u < f->units; ++u) {
    const Index v = s.deepest[u];
    if (v == kNone) continue;
    if (red == nullptr) {
      forest->atom_cells[start[v]++] = Index(u);
    } else {
      for (std::size_t k = red->indptr()[u]; k < red->indptr()[u + 1]; ++k)
        forest->atom_cells[start[v]++] = Index(red->indices()[k]);
    }
  }
  for (std::size_t v = nodes; v > 0; --v) start[v] = start[v - 1];
  start[0] = 0;
  forest->cells = f->cells;
  forest->parent = std::move(s.parent);
  forest->row_node = std::move(s.row_node);
  forest->row_coef = std::move(f->coef);
  return forest;
}

/// Recognizes `op` (the unweighted stack) as a laminar forest, or
/// returns null.  Linear-time shapes are rebuilt per call; superlinear
/// paintings are memoized under op's structural key.
std::shared_ptr<const Forest> ForestOf(const LinOpPtr& op) {
  if (op->rows() >= kNone || op->cols() >= kNone) return nullptr;
  Flat f;
  f.cells = op->cols();
  if (!Walk(*op, /*reduced=*/false, &f)) return nullptr;
  auto build = [&f]() -> std::shared_ptr<const Forest> {
    Shape s;
    const bool ok =
        f.all_intervals ? BuildIntervals(f, &s) : BuildPaint(f, &s);
    return ok ? Finish(std::move(s), &f) : nullptr;
  };
  const bool linear =
      f.all_intervals || f.implicit_cells <= 2 * (f.rows + f.units);
  if (linear || !RewriteEnabled()) return build();
  return std::static_pointer_cast<const Forest>(
      OperatorCache::Global().Structure(op, [&](std::size_t* bytes) {
        std::shared_ptr<const Forest> forest = build();
        *bytes = forest ? forest->Bytes() : 0;
        return forest;
      }));
}

/// A recognized stack: the forest of X for a measurement Kron(I_outer,
/// c X, I_inner) — outer = inner = 1, c = 1 for every other stack.
struct Recognized {
  std::shared_ptr<const Forest> forest;
  std::size_t outer = 1, inner = 1;
  double scale = 1.0;
};

void KronFactors(const LinOpPtr& op, std::vector<LinOpPtr>* out) {
  if (auto* k = dynamic_cast<const KroneckerOp*>(op.get())) {
    KronFactors(k->a(), out);
    KronFactors(k->b(), out);
  } else {
    out->push_back(op);
  }
}

std::optional<Recognized> Recognize(const MeasurementSet& mset) {
  Recognized rec;
  if (mset.size() > 1) {
    rec.forest = ForestOf(mset.StackedOp());
    if (!rec.forest) return std::nullopt;
    return rec;
  }
  LinOpPtr op = mset.items()[0].m;
  LinOpPtr kron = op;
  double scale = 1.0;
  while (auto* s = dynamic_cast<const ScaleOp*>(kron.get())) {
    scale *= s->scale();
    kron = s->child();
  }
  if (dynamic_cast<const KroneckerOp*>(kron.get()) != nullptr) {
    // Kron(I.., X, I..): rows (i, r, j) and cells (i, c, j) of fiber
    // (i, j) are X's rows and cells, so X's forest serves every fiber.
    if (!(scale > 0.0)) return std::nullopt;
    std::vector<LinOpPtr> factors;
    KronFactors(kron, &factors);
    std::size_t x = factors.size() - 1, others = 0;
    for (std::size_t k = 0; k < factors.size(); ++k)
      if (dynamic_cast<const IdentityOp*>(factors[k].get()) == nullptr) {
        x = k;
        ++others;
      }
    if (others > 1) return std::nullopt;
    for (std::size_t k = 0; k < factors.size(); ++k) {
      if (k < x) rec.outer *= factors[k]->cols();
      if (k > x) rec.inner *= factors[k]->cols();
    }
    rec.scale = scale;
    op = factors[x];
  }
  rec.forest = ForestOf(op);
  if (!rec.forest) return std::nullopt;
  return rec;
}

// --------------------------------------------------------------- solve

Vec Solve(const Recognized& rec, const MeasurementSet& mset) {
  const Forest& t = *rec.forest;
  const std::size_t nodes = t.parent.size(), rows = t.row_node.size();
  const std::size_t fibers = rec.outer * rec.inner;
  auto coef = [&t](std::size_t r) {
    return t.row_coef.empty() ? 1.0 : t.row_coef[r];
  };
  auto has_atom = [&t](std::size_t v) {
    return t.atom_start[v + 1] > t.atom_start[v];
  };
  // fn(r, c_r, w_k, y_k, rr) for every row r of a fiber: row rr of
  // measurement k (answers y_k, precision weight w_k), whose weighted
  // indicator multiple c_r = w_k * scale * coef_r is the same in every
  // fiber.
  auto for_each_row = [&](auto&& fn) {
    std::size_t r = 0;
    for (std::size_t k = 0; k < mset.size(); ++k) {
      const double w = mset.Weight(k);
      const std::size_t item_rows = mset.items()[k].m->rows() / fibers;
      const double* y = mset.items()[k].y.data();
      for (std::size_t rr = 0; rr < item_rows; ++rr, ++r)
        fn(r, w * rec.scale * coef(r), w, y, rr);
    }
    EK_CHECK_EQ(r, rows);
  };

  // Variances depend only on the weights: one bottom-up pass shared by
  // all fibers.  var[v] first sums node v's row precisions c_r^2, then
  // becomes the variance of v's subtree estimate of its total.  q[v] is
  // the precision of v's children's summed estimates: 0 when v has an
  // atom (an unmeasured child of infinite variance).
  Vec var(nodes, 0.0), q(nodes, 0.0);
  for_each_row([&](std::size_t r, double c, double, const double*,
                   std::size_t) {
    var[t.row_node[r]] += c * c;
  });
  for (std::size_t v = nodes; v-- > 0;) {
    q[v] = has_atom(v) ? 0.0 : 1.0 / q[v];  // q[v] held the children's var
    var[v] = 1.0 / (var[v] + q[v]);
    if (t.parent[v] != kNone) q[t.parent[v]] += var[v];
  }

  Vec x(fibers * t.cells, 0.0), z(nodes), child_z(nodes);
  for (std::size_t i = 0; i < rec.outer; ++i) {
    for (std::size_t j = 0; j < rec.inner; ++j) {
      // z[v] first sums c_r * b_r over v's rows, b_r = w_k * y_r the
      // weighted answer of row r in fiber (i, j).
      std::fill(z.begin(), z.end(), 0.0);
      std::fill(child_z.begin(), child_z.end(), 0.0);
      for_each_row([&](std::size_t r, double c, double w, const double* y,
                       std::size_t rr) {
        z[t.row_node[r]] += c * (w * y[(i * rows + rr) * rec.inner + j]);
      });
      // Bottom-up: z[v] combines v's own rows with its children's sum.
      for (std::size_t v = nodes; v-- > 0;) {
        z[v] = (z[v] + q[v] * child_z[v]) * var[v];
        if (t.parent[v] != kNone) child_z[t.parent[v]] += z[v];
      }
      // Top-down: a node's surplus over its children's estimates goes to
      // its atom when it has one, else to the children in proportion to
      // their variances (child_z[v] becomes that per-variance share).
      for (std::size_t v = 0; v < nodes; ++v) {
        const Index p = t.parent[v];
        const double total = p == kNone ? z[v] : z[v] + var[v] * child_z[p];
        const double surplus = total - child_z[v];
        child_z[v] = surplus * q[v];
        if (has_atom(v)) {
          const Index a0 = t.atom_start[v], a1 = t.atom_start[v + 1];
          const double share = surplus / double(a1 - a0);
          for (Index a = a0; a < a1; ++a)
            x[(i * t.cells + t.atom_cells[a]) * rec.inner + j] = share;
        }
      }
    }
  }
  return x;
}

// ------------------------------------------------------ orthogonal rows

/// The squared row norms of op, the diagonal of A A^T, when its rows are
/// mutually orthogonal: Haar wavelets, identities, and Kron, RowWeight and
/// Scale built from them, with weights of any sign.  False otherwise.
bool OrthogonalRows(const LinOp& op, Vec* d) {
  if (auto* s = dynamic_cast<const ScaleOp*>(&op)) {
    if (!OrthogonalRows(*s->child(), d)) return false;
    for (double& v : *d) v *= s->scale() * s->scale();
    return true;
  }
  if (auto* w = dynamic_cast<const RowWeightOp*>(&op)) {
    if (!OrthogonalRows(*w->child(), d)) return false;
    for (std::size_t r = 0; r < d->size(); ++r)
      (*d)[r] *= w->weights()[r] * w->weights()[r];
    return true;
  }
  if (auto* k = dynamic_cast<const KroneckerOp*>(&op)) {
    // (A (x) B)(A (x) B)^T = A A^T (x) B B^T: row (i, r) is i * mb + r.
    Vec da, db;
    if (!OrthogonalRows(*k->a(), &da) || !OrthogonalRows(*k->b(), &db))
      return false;
    d->resize(da.size() * db.size());
    for (std::size_t i = 0; i < da.size(); ++i)
      for (std::size_t r = 0; r < db.size(); ++r)
        (*d)[i * db.size() + r] = da[i] * db[r];
    return true;
  }
  if (dynamic_cast<const IdentityOp*>(&op) != nullptr) {
    d->assign(op.rows(), 1.0);
    return true;
  }
  if (dynamic_cast<const WaveletOp*>(&op) != nullptr) {
    // Row 0 is the total; level j's rows 2^j .. 2^(j+1)-1 are +-1 over
    // blocks of n / 2^j cells (linalg/haar.h).
    const std::size_t n = op.rows();
    d->assign(n, double(n));
    for (std::size_t first = 2, size = n / 2; first < n; first *= 2, size /= 2)
      std::fill(d->begin() + first, d->begin() + 2 * first, double(size));
    return true;
  }
  return false;
}

// ------------------------------------------------- row-space (dual) solve

/// The dual solve's dense QR costs m * k * min(m, k) multiply-adds for m
/// rows over k atoms.  LSMR on the same stack is bounded by its iteration
/// cap times one apply pair, O(n + m) for the interval and indicator stacks
/// this path takes.  The dual solve runs while
///   m * k * min(m, k) + (units painted) <= kDualCostRatio * cap * (n + m).
/// bench/ablation_inference times both solvers on either side of this
/// crossover.
constexpr double kDualCostRatio = 1.0;

/// A flattened stack's elementary atoms: maximal unit sets that no row
/// support splits.  The minimum-norm solution lies in the row space, so it
/// is constant on every atom.  Atoms are numbered by their first unit.
struct Atoms {
  std::vector<Index> of_unit;  // per unit: its atom, kNone when uncovered
  std::size_t count = 0;
};

/// Interval supports in O(rows + units): atoms start at every row's lo
/// and hi + 1, and cover what some row covers.
Atoms IntervalAtoms(const Flat& f) {
  std::vector<int64_t> depth(f.units + 1, 0);
  std::vector<uint8_t> cut(f.units + 1, 0);
  for (const Block& b : f.blocks)
    for (std::size_t r = 0; r < b.leaf->rows(); ++r) {
      Index lo = 0, hi = 0;
      RowInterval(b, r, f.units, &lo, &hi);
      ++depth[lo];
      --depth[hi + 1];
      cut[lo] = cut[hi + 1] = 1;
    }
  Atoms atoms;
  atoms.of_unit.assign(f.units, kNone);
  int64_t covering = 0;
  for (std::size_t u = 0; u < f.units; ++u) {
    covering += depth[u];
    if (covering == 0) continue;
    if (cut[u] || u == 0 || atoms.of_unit[u - 1] == kNone) ++atoms.count;
    atoms.of_unit[u] = Index(atoms.count - 1);
  }
  return atoms;
}

/// Arbitrary supports in O(sum of sizes): each row splits every class of
/// units it touches into the part inside it and the part outside.
Atoms PaintedAtoms(const Flat& f) {
  std::vector<Index> cls(f.units, 0);  // class 0: no row so far
  std::vector<Index> moved_to = {0}, moved_by = {kNone};
  for (const Block& b : f.blocks)
    for (std::size_t r = 0; r < b.leaf->rows(); ++r) {
      const Index row = Index(b.first_row + r);
      ForEachUnit(b, r, f.units, [&](Index u) {
        const Index c = cls[u];
        if (moved_by[c] != row) {
          moved_by[c] = row;
          moved_to[c] = Index(moved_to.size());
          moved_to.push_back(0);
          moved_by.push_back(kNone);
        }
        cls[u] = moved_to[c];
      });
    }
  Atoms atoms;
  atoms.of_unit.assign(f.units, kNone);
  std::vector<Index> atom_of_class(moved_to.size(), kNone);
  for (std::size_t u = 0; u < f.units; ++u) {
    const Index c = cls[u];
    if (c == 0) continue;
    if (atom_of_class[c] == kNone) atom_of_class[c] = Index(atoms.count++);
    atoms.of_unit[u] = atom_of_class[c];
  }
  return atoms;
}

/// Cells of unit u: u itself, or the cells of partition group u.
template <typename Fn>
void ForEachCell(const Flat& f, std::size_t u, Fn&& fn) {
  if (f.reduce == nullptr) {
    fn(u);
    return;
  }
  const CsrMatrix& m = f.reduce->csr();
  for (std::size_t k = m.indptr()[u]; k < m.indptr()[u + 1]; ++k)
    fn(m.indices()[k]);
}

}  // namespace

// ------------------------------------------------------- atom reduction

/// The stack's rows over its groups: atom intervals [lo, hi] when every
/// support is an interval (interval atoms are numbered left to right),
/// else each row's atom list.  The uncovered group, if any, is numbered
/// `atoms` and lies in no row.
struct AtomReduction::Rows {
  std::size_t atoms = 0, groups = 0;
  Vec coef;  // per row; empty = all 1
  bool intervals = true;
  std::vector<Index> lo, hi;       // per row, intervals only
  std::vector<Index> start, list;  // CSR row lists otherwise

  double Coef(std::size_t r) const { return coef.empty() ? 1.0 : coef[r]; }

  /// Calls fn(a) for every atom of row r.
  template <typename Fn>
  void ForEachAtom(std::size_t r, Fn&& fn) const {
    if (intervals) {
      for (Index a = lo[r]; a <= hi[r]; ++a) fn(a);
    } else {
      for (Index k = start[r]; k < start[r + 1]; ++k) fn(list[k]);
    }
  }
};

namespace {

class AtomRowsOp final : public LinOp {
 public:
  using Rows = AtomReduction::Rows;
  AtomRowsOp(std::size_t rows, std::shared_ptr<const Rows> s, Vec col_scale)
      : LinOp(rows, s->groups),
        s_(std::move(s)),
        scale_(std::move(col_scale)) {}

  void ApplyRaw(const double* u, double* y) const override {
    const Rows& s = *s_;
    auto scaled = [&](std::size_t a) {
      return scale_.empty() ? u[a] : scale_[a] * u[a];
    };
    if (s.intervals) {
      // Prefix sums over the covered atoms, as RangeSetOp does over cells.
      Vec pre(s.atoms + 1, 0.0);
      for (std::size_t a = 0; a < s.atoms; ++a) pre[a + 1] = pre[a] + scaled(a);
      for (std::size_t r = 0; r < rows(); ++r)
        y[r] = s.Coef(r) * (pre[s.hi[r] + 1] - pre[s.lo[r]]);
      return;
    }
    for (std::size_t r = 0; r < rows(); ++r) {
      double sum = 0.0;
      s.ForEachAtom(r, [&](Index a) { sum += scaled(a); });
      y[r] = s.Coef(r) * sum;
    }
  }

  void ApplyTRaw(const double* x, double* y) const override {
    const Rows& s = *s_;
    std::fill(y, y + cols(), 0.0);
    if (s.intervals) {
      // A difference array over the covered atoms, then its prefix sums.
      for (std::size_t r = 0; r < rows(); ++r) {
        const double v = s.Coef(r) * x[r];
        y[s.lo[r]] += v;
        if (s.hi[r] + 1 < s.atoms) y[s.hi[r] + 1] -= v;
      }
      double run = 0.0;
      for (std::size_t a = 0; a < s.atoms; ++a) {
        run += y[a];
        y[a] = run;
      }
    } else {
      for (std::size_t r = 0; r < rows(); ++r) {
        const double v = s.Coef(r) * x[r];
        s.ForEachAtom(r, [&](Index a) { y[a] += v; });
      }
    }
    if (!scale_.empty())
      for (std::size_t a = 0; a < cols(); ++a) y[a] *= scale_[a];
  }

  std::string DebugName() const override {
    return "AtomRows(" + std::to_string(rows()) + "x" +
           std::to_string(cols()) + ")";
  }

 private:
  std::shared_ptr<const Rows> s_;
  Vec scale_;
};

/// f's rows over the atoms `atoms` found for it.
AtomReduction Reduce(const Flat& f, Atoms atoms) {
  auto s = std::make_shared<AtomReduction::Rows>();
  s->atoms = atoms.count;
  s->intervals = f.all_intervals;
  s->coef = f.coef;
  if (s->intervals) {
    s->lo.resize(f.rows);
    s->hi.resize(f.rows);
  } else {
    s->start.reserve(f.rows + 1);
    s->start.push_back(0);
  }
  std::vector<Index> seen(s->intervals ? 0 : atoms.count, kNone);
  for (const Block& b : f.blocks)
    for (std::size_t r = 0; r < b.leaf->rows(); ++r) {
      const Index row = Index(b.first_row + r);
      if (s->intervals) {
        // Interval atoms are numbered left to right, so a row's atoms are
        // the run from its first unit's to its last unit's.
        Index lo = 0, hi = 0;
        RowInterval(b, r, f.units, &lo, &hi);
        s->lo[row] = atoms.of_unit[lo];
        s->hi[row] = atoms.of_unit[hi];
        continue;
      }
      ForEachUnit(b, r, f.units, [&](Index u) {
        const Index a = atoms.of_unit[u];
        if (seen[a] != row) {
          seen[a] = row;
          s->list.push_back(a);
        }
      });
      s->start.push_back(Index(s->list.size()));
    }

  const Index uncovered = Index(atoms.count);
  std::vector<Index> group_of_cell;
  if (f.reduce == nullptr) {  // units are cells
    group_of_cell = std::move(atoms.of_unit);
    for (Index& g : group_of_cell)
      if (g == kNone) g = uncovered;
  } else {
    group_of_cell.assign(f.cells, uncovered);
    for (std::size_t u = 0; u < f.units; ++u)
      if (atoms.of_unit[u] != kNone)
        ForEachCell(f, u, [&](std::size_t cell) {
          group_of_cell[cell] = atoms.of_unit[u];
        });
  }
  Vec length(atoms.count + 1, 0.0);
  for (Index g : group_of_cell) length[g] += 1.0;
  if (length.back() == 0.0) length.pop_back();
  s->groups = length.size();
  return AtomReduction(std::move(group_of_cell), std::move(length),
                       std::move(s));
}

/// Solves a non-laminar indicator stack exactly: with x = v_a on the L_a
/// cells of atom a and u_a = sqrt(L_a) v_a, ||x|| = ||u|| and row r reads
/// c_r sum over its atoms of sqrt(L_a) u_a.  The minimum-norm u of that
/// m x k problem gives the minimum-norm x.  Null past the cost gate.
std::optional<Vec> SolveDual(const MeasurementSet& mset, const Flat& f,
                             const LsmrOptions& lsmr, obs::Span* span) {
  const std::size_t m = f.rows, n = f.cells;
  const double bound = kDualCostRatio *
                       double(LsmrIterationCap(m, n, lsmr)) * double(n + m);
  const double paint = f.all_intervals ? 0.0 : double(f.implicit_cells);
  if (paint > bound) return std::nullopt;
  Atoms atoms = f.all_intervals ? IntervalAtoms(f) : PaintedAtoms(f);
  const std::size_t k = atoms.count;
  if (double(m) * double(k) * double(std::min(m, k)) + paint > bound)
    return std::nullopt;

  const AtomReduction red = Reduce(f, std::move(atoms));
  const AtomReduction::Rows& s = red.rows();
  Vec len(red.lengths().begin(), red.lengths().begin() + k);
  for (double& l : len) l = std::sqrt(l);

  // The weighted system: row r of measurement i is w_i * coef_r over its
  // atoms, with answer w_i * y_r.
  Vec weight(m);
  for (std::size_t i = 0, r0 = 0; i < mset.size(); ++i) {
    const std::size_t r1 = r0 + mset.items()[i].m->rows();
    std::fill(weight.begin() + r0, weight.begin() + r1, mset.Weight(i));
    r0 = r1;
  }
  if (!s.coef.empty())
    for (std::size_t r = 0; r < m; ++r) weight[r] *= s.coef[r];
  DenseMatrix c(m, k);
  for (std::size_t r = 0; r < m; ++r) {
    double* dst = c.RowPtr(r);
    s.ForEachAtom(r, [&](Index a) { dst[a] = weight[r] * len[a]; });
  }
  const Vec u = MinNormLeastSquares(c, mset.WeightedY());

  Vec v(red.groups(), 0.0);  // the uncovered group, if any, stays 0
  for (std::size_t a = 0; a < k; ++a) v[a] = u[a] / len[a];
  span->Attr("rows", double(m));
  span->Attr("cols", double(n));
  span->Attr("atoms", double(k));
  return red.Expand(v);
}

}  // namespace

std::optional<AtomReduction> AtomReduction::Of(const LinOp& stack) {
  if (stack.rows() >= kNone || stack.cols() >= kNone) return std::nullopt;
  Flat f;
  f.cells = stack.cols();
  if (!Walk(stack, /*reduced=*/false, &f)) return std::nullopt;
  if (!f.all_intervals && f.implicit_cells > 2 * (f.rows + f.units))
    return std::nullopt;
  return Reduce(f, f.all_intervals ? IntervalAtoms(f) : PaintedAtoms(f));
}

std::optional<Vec> AtomReduction::Restrict(const Vec& x) const {
  EK_CHECK_EQ(x.size(), cells());
  Vec v(groups());
  std::vector<uint8_t> seen(groups(), 0);
  for (std::size_t j = 0; j < x.size(); ++j) {
    const Index g = group_of_cell_[j];
    if (!seen[g]) {
      seen[g] = 1;
      v[g] = x[j];
    } else if (!BitwiseEq(v[g], x[j])) {
      return std::nullopt;
    }
  }
  return v;
}

Vec AtomReduction::Expand(const Vec& v) const {
  EK_CHECK_EQ(v.size(), groups());
  Vec x(cells());
  for (std::size_t j = 0; j < x.size(); ++j) x[j] = v[group_of_cell_[j]];
  return x;
}

std::unique_ptr<LinOp> AtomReduction::Op(Vec col_scale) const {
  EK_CHECK(col_scale.empty() || col_scale.size() == groups());
  const std::size_t rows =
      rows_->intervals ? rows_->lo.size() : rows_->start.size() - 1;
  return std::make_unique<AtomRowsOp>(rows, rows_, std::move(col_scale));
}

std::optional<Vec> LaminarLeastSquares(const MeasurementSet& mset) {
  EK_CHECK(!mset.empty());
  // Recognition runs inside the span; a stack that turns out not to be
  // laminar discards it, so the series counts tree solves only.
  static obs::Histogram& seconds = SolverSeconds("solver=\"tree\"");
  obs::Span span("solver.tree", "solver", &seconds);
  std::optional<Recognized> rec = Recognize(mset);
  if (!rec) {
    span.Discard();
    return std::nullopt;
  }
  span.Attr("nodes", static_cast<double>(rec->forest->parent.size()));
  span.Attr("fibers", static_cast<double>(rec->outer * rec->inner));
  span.Attr("rows", static_cast<double>(mset.TotalQueries()));
  span.Attr("cols", static_cast<double>(mset.Domain()));
  return Solve(*rec, mset);
}

std::optional<Vec> OrthogonalLeastSquares(const MeasurementSet& mset) {
  EK_CHECK(!mset.empty());
  static obs::Histogram& seconds = SolverSeconds("solver=\"orth\"");
  obs::Span span("solver.orth", "solver", &seconds);
  // x = A^T (A A^T)^+ b, the minimum-norm solution of any A; with A A^T
  // diagonal its pseudo-inverse drops the zero rows and divides the rest.
  LinOpPtr a = mset.WeightedOp();
  Vec d;
  if (!OrthogonalRows(*a, &d)) {
    span.Discard();
    return std::nullopt;
  }
  Vec z = mset.WeightedY();
  for (std::size_t r = 0; r < z.size(); ++r)
    z[r] = d[r] > 0.0 ? z[r] / d[r] : 0.0;
  span.Attr("rows", static_cast<double>(z.size()));
  span.Attr("cols", static_cast<double>(a->cols()));
  return a->ApplyT(z);
}

std::optional<Vec> RowSpaceLeastSquares(const MeasurementSet& mset,
                                        const LsmrOptions& lsmr) {
  EK_CHECK(!mset.empty());
  static obs::Histogram& seconds = SolverSeconds("solver=\"dual\"");
  obs::Span span("solver.dual", "solver", &seconds);
  LinOpPtr op = mset.StackedOp();
  std::optional<Vec> x;
  Flat f;
  f.cells = op->cols();
  if (op->rows() < kNone && op->cols() < kNone &&
      Walk(*op, /*reduced=*/false, &f))
    x = SolveDual(mset, f, lsmr, &span);
  if (!x) span.Discard();
  return x;
}

}  // namespace ektelo
