// Throughput upper-bound estimation (Sec. 5.2): the analytic surrogate that
// lets Kairos rank every configuration under the budget without a single
// online evaluation. For a config with u base nodes and auxiliary types i
// with v_i nodes each:
//
//   C = Σ_i v_i·Q_a^i · (1 - f') / f'            (Eq. 14)
//   QPSmax = u·Q_b^{s+} / (1 - f')               if u·Q_b^{s+} <= C  (base
//                                                 is the bottleneck, Eq. 12)
//   QPSmax = Σ_i v_i·Q_a^i / f'
//            + (u·Q_b^{s+} - C)/(u·Q_b^{s+}) · u·Q_b   otherwise (Eq. 13)
//
// where s' is the largest QoS-feasible batch over the auxiliary types, f'
// the fraction of queries at or below s', Q_b / Q_b^{s+} the base node's
// standalone rate over all / over larger-than-s' queries, and Q_a^i each
// auxiliary node's rate over the small-query mass (the paper's max-(s, f)
// simplification for multiple auxiliary types).
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "cloud/config.h"
#include "cloud/instance_type.h"
#include "latency/latency_model.h"
#include "workload/monitor.h"

namespace kairos::ub {

/// Raw Eq. 12/13/15 evaluation over pre-computed standalone rates.
/// `aux` holds (node count v_i, per-node rate Q_a^i) pairs. Exposed
/// separately so tests can reproduce the paper's Fig. 7 worked examples.
double UpperBoundGeneral(int u, double q_b, double q_b_splus,
                         std::span<const std::pair<int, double>> aux,
                         double f_prime);

/// Everything the estimator derived for one configuration; useful for
/// reports and for the Fig. 14 "UB" series.
struct UpperBoundBreakdown {
  double qps_max = 0.0;
  int s_prime = 0;          ///< largest auxiliary QoS-feasible batch
  double f_prime = 0.0;     ///< query fraction at or below s_prime
  double q_b = 0.0;         ///< base standalone rate, all queries
  double q_b_splus = 0.0;   ///< base standalone rate, queries > s_prime
  double aux_rate_sum = 0.0;///< Σ v_i·Q_a^i
  double c = 0.0;           ///< Eq. 14 intermediate
  bool base_bottleneck = false;  ///< which Eq. 15 branch fired
};

/// Upper-bound estimator bound to one (catalog, model, QoS) context. The
/// catalog/truth/QoS invariants (base type, auxiliary types, each
/// auxiliary's largest QoS-feasible batch and latency curve) are derived
/// once, at construction.
class UpperBoundEstimator {
 public:
  class Scan;

  UpperBoundEstimator(const cloud::Catalog& catalog,
                      const latency::LatencyModel& truth, double qos_ms);

  /// Full breakdown for one config given observed workload statistics.
  UpperBoundBreakdown Estimate(const cloud::Config& config,
                               const workload::QueryMonitor& monitor) const;

  /// Shortcut returning only QPSmax.
  double QpsMax(const cloud::Config& config,
                const workload::QueryMonitor& monitor) const {
    return Estimate(config, monitor).qps_max;
  }

  /// Estimates for a whole candidate list (the warmup step the paper times
  /// at "under 2 seconds for 1000 configurations"). One Scan over the
  /// list: s' takes at most |aux types|+1 distinct values, so the monitor's
  /// histogram is read once per distinct s' and each config then costs
  /// O(types) with no heap allocation.
  std::vector<double> EstimateAll(const std::vector<cloud::Config>& configs,
                                  const workload::QueryMonitor& monitor) const;

 private:
  struct AuxType {
    cloud::TypeId type;
    int max_qos_batch;           ///< MaxQosBatch(type, qos_ms)
    std::size_t slot;            ///< index of max(0, max_qos_batch) in s_values_
    latency::AffineLatency curve;
  };

  std::size_t num_types_ = 0;
  cloud::TypeId base_ = 0;
  latency::AffineLatency base_curve_;
  std::vector<AuxType> aux_;     ///< catalog order
  std::vector<int> s_values_;    ///< distinct candidate s', ascending; [0] = 0
};

/// The estimator applied to one monitor snapshot. The s'-dependent mix
/// statistics (f', Q_b^{s+}, the small-query mean) are computed on first
/// use of each distinct s' and memoized; every config shares them. Every
/// estimate — Estimate(), QpsMax(), EstimateAll(), the planner's budget
/// probe — goes through Scan::Estimate. The estimator and the monitor must
/// outlive the scan, and the monitor must not change while it is in use.
class UpperBoundEstimator::Scan {
 public:
  Scan(const UpperBoundEstimator& estimator,
       const workload::QueryMonitor& monitor);

  /// Breakdown for one config given as counts indexed by TypeId. Throws
  /// std::invalid_argument when the arity differs from the catalog's.
  UpperBoundBreakdown Estimate(std::span<const int> counts);

 private:
  struct MixStats {
    bool ready = false;
    double f_prime = 0.0;
    double q_b_splus = 0.0;
    double mean_small = 0.0;
  };
  const MixStats& Mix(std::size_t slot);

  const UpperBoundEstimator& est_;
  const workload::QueryMonitor& monitor_;
  double q_b_ = 0.0;  ///< base standalone rate, all queries
  std::vector<MixStats> mix_;                  ///< indexed like s_values_
  std::vector<std::pair<int, double>> aux_;    ///< per-config scratch
};

}  // namespace kairos::ub
