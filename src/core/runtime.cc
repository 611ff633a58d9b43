#include "core/runtime.h"

namespace kairos::core {

Runtime::Runtime(const cloud::Catalog& catalog, cloud::Config config,
                 const latency::LatencyModel& truth, double qos_ms,
                 RuntimeOptions options)
    : catalog_(catalog),
      config_(std::move(config)),
      truth_(truth),
      qos_ms_(qos_ms),
      options_(options) {}

std::unique_ptr<serving::ServingSystem> Runtime::MakeSystem() const {
  serving::SystemSpec spec;
  spec.catalog = &catalog_;
  spec.config = config_;
  spec.truth = &truth_;
  spec.qos_ms = qos_ms_;
  return std::make_unique<serving::ServingSystem>(
      spec, std::make_unique<policy::KairosPolicy>(options_.policy),
      options_.predictor, options_.run);
}

StatusOr<std::unique_ptr<serving::Engine>> Runtime::MakeEngine(
    serving::EngineOptions engine_options,
    sim::Simulator* shared_clock) const {
  serving::SystemSpec spec;
  spec.catalog = &catalog_;
  spec.config = config_;
  spec.truth = &truth_;
  spec.qos_ms = qos_ms_;
  return serving::Engine::Create(
      spec, std::make_unique<policy::KairosPolicy>(options_.policy),
      options_.predictor, engine_options, shared_clock);
}

serving::EvalResult Runtime::MeasureThroughput(
    const workload::BatchDistribution& mix,
    const serving::EvalOptions& eval_options) const {
  return serving::AllowableThroughput([this] { return MakeSystem(); }, mix,
                                      qos_ms_, eval_options);
}

}  // namespace kairos::core
