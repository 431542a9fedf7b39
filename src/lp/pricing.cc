#include "lp/pricing.h"

#include <algorithm>
#include <cmath>

namespace privsan {
namespace lp {

double PriceColumn(const PricingView& view, int j, int& sign) {
  sign = 0;
  const VarStatus st = view.state[j];
  if (st == VarStatus::kBasic || view.lower[j] == view.upper[j]) return 0.0;
  const double reduced = view.reduced_costs[j];
  if ((st == VarStatus::kAtLower || st == VarStatus::kFree) &&
      reduced < -view.optimality_tol) {
    sign = +1;
    return -reduced;
  }
  if ((st == VarStatus::kAtUpper || st == VarStatus::kFree) &&
      reduced > view.optimality_tol) {
    sign = -1;
    return reduced;
  }
  return 0.0;
}

// ---- PrimalPricer -----------------------------------------------------------

PrimalPricer::PrimalPricer(int n_total) : gamma_(n_total, 1.0) {}

void PrimalPricer::ResetReference() {
  std::fill(gamma_.begin(), gamma_.end(), 1.0);
}

PrimalPricer::Choice PrimalPricer::ChooseEntering(const PricingView& view,
                                                  bool bland) const {
  Choice choice;
  double best = 0.0;
  const int n_total = static_cast<int>(gamma_.size());
  for (int j = 0; j < n_total; ++j) {
    int sign = 0;
    const double violation = PriceColumn(view, j, sign);
    if (sign == 0) continue;
    // First improving index — guarantees termination under degeneracy.
    if (bland) return Choice{j, sign};
    const double score = violation * violation / gamma_[j];
    if (score > best) {
      best = score;
      choice.entering = j;
      choice.sign = sign;
    }
  }
  return choice;
}

void PrimalPricer::OnPivot(const PricingView& view, int entering,
                           int leaving_var, double pivot,
                           std::span<const int> alpha_touched,
                           const std::vector<SparseAccumCell>& alpha) {
  const double gamma_q = gamma_[entering];
  const double inv_pivot_sq = 1.0 / (pivot * pivot);
  for (int j : alpha_touched) {
    if (view.state[j] == VarStatus::kBasic) continue;
    const double candidate_weight =
        alpha[j].value * alpha[j].value * inv_pivot_sq * gamma_q;
    if (candidate_weight > gamma_[j]) gamma_[j] = candidate_weight;
  }
  gamma_[leaving_var] = std::max(gamma_q * inv_pivot_sq, 1.0);
}

// ---- DualPricer -------------------------------------------------------------

DualPricer::DualPricer(int m, const SimplexOptions& options)
    : devex_(options.dual_pricing == SimplexOptions::DualPricing::kDevex),
      weights_(m, 1.0) {}

void DualPricer::ResetReference() {
  std::fill(weights_.begin(), weights_.end(), 1.0);
}

DualPricer::Leaving DualPricer::ChooseLeaving(
    std::span<const double> x, std::span<const int> basis,
    std::span<const double> lower, std::span<const double> upper) const {
  Leaving leaving;
  double best_score = 0.0;
  const int m = static_cast<int>(basis.size());
  for (int i = 0; i < m; ++i) {
    const int bv = basis[i];
    const double v = x[bv];
    double violation = 0.0;
    bool below = false;
    if (v < lower[bv] - 1e-9 * (1.0 + std::abs(lower[bv]))) {
      below = true;
      violation = lower[bv] - v;
    } else if (v > upper[bv] + 1e-9 * (1.0 + std::abs(upper[bv]))) {
      violation = v - upper[bv];
    } else {
      continue;
    }
    const double score =
        devex_ ? violation * violation / weights_[i] : violation;
    if (score > best_score) {
      best_score = score;
      leaving.slot = i;
      leaving.below = below;
      leaving.violation = violation;
    }
  }
  return leaving;
}

void DualPricer::OnPivot(const SparseVector& direction, int leaving_slot) {
  if (!devex_) return;
  const std::vector<double>& dir = direction.values;
  const double pivot = dir[leaving_slot];
  const double gamma_r = weights_[leaving_slot];
  const double inv_pivot_sq = 1.0 / (pivot * pivot);
  auto bump = [&](int i) {
    if (i == leaving_slot || dir[i] == 0.0) return;
    const double candidate = dir[i] * dir[i] * inv_pivot_sq * gamma_r;
    if (candidate > weights_[i]) weights_[i] = candidate;
  };
  if (direction.pattern_valid) {
    for (int i : direction.pattern) bump(i);
  } else {
    const int m = static_cast<int>(dir.size());
    for (int i = 0; i < m; ++i) bump(i);
  }
  weights_[leaving_slot] = std::max(gamma_r * inv_pivot_sq, 1.0);
}

}  // namespace lp
}  // namespace privsan
