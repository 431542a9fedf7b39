// Pricing for the revised simplex — who enters (primal) and who leaves
// (dual), split out of the iteration driver in lp/simplex.cc.
//
//   * PrimalPricer — Devex reference weights over the columns: every pivot
//     scans all columns once and takes the best Devex score d^2 / gamma,
//     and a Bland mode (first improving index) guarantees termination under
//     degeneracy.
//   * DualPricer — the dual simplex's leaving-row choice. Largest bound
//     violation is the legacy rule; the default is dual Devex: row weights
//     approximating the steepest-edge norms ||e_i^T B^-1||^2, updated from
//     the FTRAN image of each entering column, with rows scored by
//     violation^2 / weight. On the long dual repairs of deep B&B children
//     and post-append warm starts this cuts the pivot count the same way
//     primal Devex does on cold solves.
//
// Both pricers hold only pricing state (the weights); the
// reduced costs, the basis, and the bound data stay in the driver and are
// passed in by view. ResetReference() must be called whenever the driver
// recomputes reduced costs exactly (refactorizations, phase switches) —
// the Devex reference framework moves with them.
#ifndef PRIVSAN_LP_PRICING_H_
#define PRIVSAN_LP_PRICING_H_

#include <span>
#include <vector>

#include "lp/simplex.h"
#include "lp/sparse_matrix.h"

namespace privsan {
namespace lp {

// The per-column data one pricing pass reads.
struct PricingView {
  std::span<const double> reduced_costs;  // maintained d, one per variable
  std::span<const VarStatus> state;
  std::span<const double> lower, upper;
  double optimality_tol = 0.0;
};

// Violation magnitude of column j (0 = not improving); `sign` is +1 when
// the entering variable would increase, -1 when it would decrease.
double PriceColumn(const PricingView& view, int j, int& sign);

class PrimalPricer {
 public:
  explicit PrimalPricer(int n_total);

  // The reduced costs were recomputed exactly: reset the Devex reference
  // framework.
  void ResetReference();

  struct Choice {
    int entering = -1;
    int sign = 0;
  };

  // Picks the entering column off the maintained reduced costs in one full
  // scan: the largest d^2 / gamma over the improving columns (the first
  // index wins a tie), or under `bland` the first improving index.
  // entering == -1 when no column improves.
  Choice ChooseEntering(const PricingView& view, bool bland) const;

  // Devex weight update along the pivot row after `entering` replaced
  // `leaving_var` with pivot element `pivot`. `alpha_touched`/`alpha` are
  // the pivot row's computed entries; `view.state` must already reflect the
  // post-pivot statuses.
  void OnPivot(const PricingView& view, int entering, int leaving_var,
               double pivot, std::span<const int> alpha_touched,
               const std::vector<SparseAccumCell>& alpha);

 private:
  std::vector<double> gamma_;  // Devex reference weights
};

class DualPricer {
 public:
  DualPricer(int m, const SimplexOptions& options);

  // The basis was refactorized / reduced costs recomputed: reset the Devex
  // reference framework.
  void ResetReference();

  struct Leaving {
    int slot = -1;          // -1: primal feasible, nothing leaves
    bool below = false;     // violated bound side
    double violation = 0.0; // actual bound violation (not the Devex score)
  };

  // The leaving row: largest violation (legacy) or best violation^2/weight
  // (dual Devex).
  Leaving ChooseLeaving(std::span<const double> x, std::span<const int> basis,
                        std::span<const double> lower,
                        std::span<const double> upper) const;

  // Dual Devex weight update from the FTRAN image of the entering column
  // (`direction` = B^-1 A_entering) pivoting at `leaving_slot`. A valid
  // pattern restricts the weight scan to the image's nonzero rows (the
  // per-row max update is order-independent, so the result is identical).
  void OnPivot(const SparseVector& direction, int leaving_slot);

 private:
  bool devex_ = true;
  std::vector<double> weights_;
};

}  // namespace lp
}  // namespace privsan

#endif  // PRIVSAN_LP_PRICING_H_
