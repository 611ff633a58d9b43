#include "ub/upper_bound.h"

#include <algorithm>
#include <stdexcept>

namespace kairos::ub {

double UpperBoundGeneral(int u, double q_b, double q_b_splus,
                         std::span<const std::pair<int, double>> aux,
                         double f_prime) {
  if (u <= 0) return 0.0;  // no base: the largest queries can never be QoS-met
  double aux_rate = 0.0;
  for (const auto& [v, q] : aux) aux_rate += v * q;

  if (aux_rate <= 0.0 || f_prime <= 0.0) {
    // No effective auxiliary capacity, or no query small enough for any
    // auxiliary: the pool degenerates to homogeneous base serving.
    return u * q_b;
  }
  if (f_prime >= 1.0) {
    // Every query fits the auxiliaries: both tiers run at full rate.
    return aux_rate + u * q_b;
  }

  const double base_splus_rate = u * q_b_splus;
  const double c = aux_rate * (1.0 - f_prime) / f_prime;  // Eq. 14
  if (base_splus_rate <= c) {
    return base_splus_rate / (1.0 - f_prime);  // Eq. 12: base bottleneck
  }
  const double slack_ratio = (base_splus_rate - c) / base_splus_rate;
  return aux_rate / f_prime + slack_ratio * u * q_b;  // Eq. 13
}

UpperBoundEstimator::UpperBoundEstimator(const cloud::Catalog& catalog,
                                         const latency::LatencyModel& truth,
                                         double qos_ms)
    : num_types_(catalog.size()) {
  if (qos_ms <= 0.0) {
    throw std::invalid_argument("UpperBoundEstimator: qos_ms must be > 0");
  }
  base_ = catalog.BaseType();
  base_curve_ = truth.Curve(base_);
  s_values_.push_back(0);
  for (const cloud::TypeId t : catalog.AuxiliaryTypes()) {
    const int max_qos_batch = truth.MaxQosBatch(t, qos_ms);
    aux_.push_back({t, max_qos_batch, 0, truth.Curve(t)});
    s_values_.push_back(std::max(0, max_qos_batch));
  }
  std::sort(s_values_.begin(), s_values_.end());
  s_values_.erase(std::unique(s_values_.begin(), s_values_.end()),
                  s_values_.end());
  for (AuxType& a : aux_) {
    a.slot = static_cast<std::size_t>(
        std::lower_bound(s_values_.begin(), s_values_.end(),
                         std::max(0, a.max_qos_batch)) -
        s_values_.begin());
  }
}

UpperBoundBreakdown UpperBoundEstimator::Estimate(
    const cloud::Config& config, const workload::QueryMonitor& monitor) const {
  return Scan(*this, monitor).Estimate(config.counts());
}

std::vector<double> UpperBoundEstimator::EstimateAll(
    const std::vector<cloud::Config>& configs,
    const workload::QueryMonitor& monitor) const {
  Scan scan(*this, monitor);
  std::vector<double> out;
  out.reserve(configs.size());
  for (const cloud::Config& c : configs) {
    out.push_back(scan.Estimate(c.counts()).qps_max);
  }
  return out;
}

UpperBoundEstimator::Scan::Scan(const UpperBoundEstimator& estimator,
                                const workload::QueryMonitor& monitor)
    : est_(estimator), monitor_(monitor), mix_(estimator.s_values_.size()) {
  // Standalone per-node rates from the affine surface and the monitored
  // batch means: rate = 1000 ms / E[latency_ms].
  const latency::AffineLatency& base_curve = est_.base_curve_;
  const double mean_all = std::max(1.0, monitor_.MeanBatch());
  q_b_ = 1000.0 / (base_curve.base_ms + base_curve.per_item_ms * mean_all);
  aux_.reserve(est_.aux_.size());
}

const UpperBoundEstimator::Scan::MixStats& UpperBoundEstimator::Scan::Mix(
    std::size_t slot) {
  MixStats& m = mix_[slot];
  if (m.ready) return m;
  const int s_prime = est_.s_values_[slot];
  const latency::AffineLatency& base_curve = est_.base_curve_;
  m.f_prime = monitor_.FractionAtOrBelow(s_prime);
  const double mean_large = monitor_.MeanBatchAbove(s_prime);
  m.q_b_splus =
      mean_large > 0.0
          ? 1000.0 / (base_curve.base_ms + base_curve.per_item_ms * mean_large)
          : q_b_;
  m.mean_small = monitor_.MeanBatchAtOrBelow(s_prime);
  m.ready = true;
  return m;
}

UpperBoundBreakdown UpperBoundEstimator::Scan::Estimate(
    std::span<const int> counts) {
  if (counts.size() != est_.num_types_) {
    throw std::invalid_argument("UpperBoundEstimator: config arity mismatch");
  }
  const int u = counts[est_.base_];

  // Largest QoS-feasible region across the auxiliary types present.
  std::size_t slot = 0;
  for (const AuxType& a : est_.aux_) {
    if (counts[a.type] > 0) slot = std::max(slot, a.slot);
  }
  const MixStats& mix = Mix(slot);

  UpperBoundBreakdown out;
  out.s_prime = est_.s_values_[slot];
  out.f_prime = mix.f_prime;
  out.q_b = q_b_;
  out.q_b_splus = mix.q_b_splus;

  aux_.clear();
  for (const AuxType& a : est_.aux_) {
    const int v = counts[a.type];
    if (v <= 0) continue;
    if (a.max_qos_batch <= 0 || mix.mean_small <= 0.0) {
      aux_.emplace_back(v, 0.0);
      continue;
    }
    const double rate =
        1000.0 / (a.curve.base_ms + a.curve.per_item_ms * mix.mean_small);
    aux_.emplace_back(v, rate);
    out.aux_rate_sum += v * rate;
  }

  out.c = out.f_prime > 0.0
              ? out.aux_rate_sum * (1.0 - out.f_prime) / out.f_prime
              : 0.0;
  out.base_bottleneck =
      out.aux_rate_sum > 0.0 && out.f_prime > 0.0 && out.f_prime < 1.0 &&
      u * out.q_b_splus <= out.c;
  out.qps_max = UpperBoundGeneral(u, out.q_b, out.q_b_splus, aux_, out.f_prime);
  return out;
}

}  // namespace kairos::ub
