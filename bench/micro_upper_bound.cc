// Sec. 5.2 warmup cost: "for an order of 1000-configuration search space,
// all upper bounds can be calculated and ranked within 2 seconds". Our
// analytic implementation should beat that by orders of magnitude; this
// binary measures estimate+rank end to end, the MARGINAL allocator's probe
// sweep, and one-shot planning end to end.
#include <benchmark/benchmark.h>

#include "cloud/config_space.h"
#include "core/kairos.h"
#include "core/planner_backend.h"
#include "ub/selector.h"
#include "ub/upper_bound.h"

namespace {

void BM_EstimateAndRankWholeSpace(benchmark::State& state) {
  using namespace kairos;
  const cloud::Catalog catalog = cloud::Catalog::PaperPool();
  const auto spec = latency::FindModel("RM2");
  const auto truth = spec.Instantiate(catalog);
  // Budget chosen so the space has the paper's order of 1000 configs.
  const double budget = static_cast<double>(state.range(0)) / 10.0;
  const auto space = cloud::EnumerateConfigs(
      catalog, {.budget_per_hour = budget, .min_base_instances = 1});
  const auto monitor = core::MonitorFromMix(
      workload::LogNormalBatches::Production(), 10000, 7);
  const ub::UpperBoundEstimator est(catalog, truth, spec.qos_ms);
  for (auto _ : state) {
    const auto bounds = est.EstimateAll(space, monitor);
    benchmark::DoNotOptimize(ub::RankByUpperBound(space, bounds));
  }
  state.counters["configs"] =
      benchmark::Counter(static_cast<double>(space.size()));
}
BENCHMARK(BM_EstimateAndRankWholeSpace)
    ->Arg(25)   // $2.5/hr  (~3e2 configs)
    ->Arg(50)   // $5/hr
    ->Arg(100); // $10/hr   (order of 1e4 configs)

// The MARGINAL allocator's probe sweep for one model: the default
// PlannerBackend::Probe at every auto-step budget from one base instance to
// $12/hr (33 probes), reported as budgeted configs estimated per second.
void BM_MarginalProbeSweep(benchmark::State& state) {
  using namespace kairos;
  const cloud::Catalog catalog = cloud::Catalog::PaperPool();
  const auto spec = latency::FindModel("RM2");
  const auto truth = spec.Instantiate(catalog);
  const auto monitor = core::MonitorFromMix(
      workload::LogNormalBatches::Production(), 10000, 7);
  const auto backend = *PlannerRegistry::Global().Build("KAIROS");
  core::PlanRequest request;
  request.monitor = &monitor;

  // MarginalAllocator's auto step (32 grants of the spendable budget).
  const double floor = catalog[catalog.BaseType()].price_per_hour;
  const double step = (12.0 - floor) / 32.0;
  std::vector<double> budgets;
  std::size_t configs = 0;
  for (int k = 0; k <= 32; ++k) {
    budgets.push_back(floor + k * step);
    configs += cloud::EnumerateConfigs(
                   catalog, {.budget_per_hour = budgets.back(),
                             .min_base_instances = 1})
                   .size();
  }
  for (auto _ : state) {
    for (const double budget : budgets) {
      const core::PlannerContext ctx{&catalog, &truth, spec.qos_ms, budget};
      benchmark::DoNotOptimize(backend->Probe(ctx, request));
    }
  }
  state.counters["configs/s"] = benchmark::Counter(
      static_cast<double>(configs) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MarginalProbeSweep)->Unit(benchmark::kMillisecond);

void BM_PlanConfigurationEndToEnd(benchmark::State& state) {
  using namespace kairos;
  const cloud::Catalog catalog = cloud::Catalog::PaperPool();
  core::Kairos kairos(catalog, "RM2");
  kairos.ObserveMix(workload::LogNormalBatches::Production());
  for (auto _ : state) {
    benchmark::DoNotOptimize(kairos.PlanConfiguration());
  }
}
BENCHMARK(BM_PlanConfigurationEndToEnd);

}  // namespace

BENCHMARK_MAIN();
