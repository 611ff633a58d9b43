// The Kairos central controller runtime (Fig. 4 left half): a serving
// deployment wired with the Kairos query-distribution policy, with entry
// points for streaming engines (MakeEngine, DESIGN.md Sec. 8) and for
// measuring allowable throughput.
#pragma once

#include <memory>

#include "common/status.h"
#include "policy/kairos_policy.h"
#include "serving/engine.h"
#include "serving/system.h"
#include "serving/throughput_eval.h"

namespace kairos::core {

/// Runtime construction knobs.
struct RuntimeOptions {
  policy::KairosPolicyOptions policy;
  serving::PredictorOptions predictor;
  serving::RunOptions run;
};

/// A deployed Kairos serving system for one (catalog, config, model, QoS).
class Runtime {
 public:
  /// `catalog` and `truth` must outlive the runtime.
  Runtime(const cloud::Catalog& catalog, cloud::Config config,
          const latency::LatencyModel& truth, double qos_ms,
          RuntimeOptions options = {});

  /// Builds a streaming engine over this deployment (the Kairos policy,
  /// this runtime's predictor/run options). Pass a `shared_clock` to
  /// co-simulate several deployments on one event loop, as
  /// Fleet::ServeAll does; the clock must outlive the engine.
  StatusOr<std::unique_ptr<serving::Engine>> MakeEngine(
      serving::EngineOptions engine_options = {},
      sim::Simulator* shared_clock = nullptr) const;

  /// Allowable throughput of this deployment under the given mix.
  serving::EvalResult MeasureThroughput(
      const workload::BatchDistribution& mix,
      const serving::EvalOptions& eval_options) const;

  const cloud::Config& config() const { return config_; }
  double qos_ms() const { return qos_ms_; }

 private:
  std::unique_ptr<serving::ServingSystem> MakeSystem() const;

  const cloud::Catalog& catalog_;
  cloud::Config config_;
  const latency::LatencyModel& truth_;
  double qos_ms_;
  RuntimeOptions options_;
};

}  // namespace kairos::core
