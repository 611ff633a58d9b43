// Ablation: what exploration really costs once reconfiguration is priced
// in. Allocating cloud instances takes tens of seconds (Sec. 4), and every
// configuration an online searcher evaluates is a live reconfiguration.
// This bench replays the Fig. 12 regime change with a 30-second launch
// delay and a 60-second evaluation dwell per explored configuration, and
// reports the goodput (QoS-respecting queries served) and dollars spent
// over the transient window for: Kairos (one reconfiguration), Kairos+
// (a few), and BO-driven Ribbon exploration (many).
#include <iostream>
#include <map>

#include "bench/bench_util.h"
#include "cloud/billing.h"
#include "search/bayes_opt.h"
#include "search/kairos_plus.h"
#include "ub/selector.h"
#include "ub/upper_bound.h"

int main() {
  using namespace kairos;
  const cloud::Catalog catalog = cloud::Catalog::PaperPool();
  const bench::ModelBench mb(catalog, "RM2");
  const workload::GaussianBatches after(250.0, 120.0);
  const auto monitor = core::MonitorFromMix(after, 10000, 7);

  const auto space = mb.Space();
  const ub::UpperBoundEstimator est(catalog, mb.truth, mb.qos_ms);
  const auto bounds = est.EstimateAll(space, monitor);
  const auto ranked = ub::RankByUpperBound(space, bounds);
  const double guess = 0.5 * ranked.front().upper_bound;

  std::map<cloud::Config, double> memo;
  const search::EvalFn eval = [&](const cloud::Config& c) {
    if (auto it = memo.find(c); it != memo.end()) return it->second;
    const double qps = mb.Throughput(c, "KAIROS", after, guess);
    memo.emplace(c, qps);
    return qps;
  };

  const Time launch_delay = 30.0;
  const Time dwell = 60.0;          // time spent measuring each config
  const Time window = 1200.0;       // 20-minute transient window
  const cloud::Config start = cloud::BestHomogeneous(catalog, 2.5);

  struct Transcript {
    std::string name;
    std::vector<cloud::Config> visits;  // in order; last = final choice
  };
  std::vector<Transcript> runs;

  // Kairos: plan once, reconfigure once.
  const auto selection = ub::SelectConfiguration(ranked, catalog);
  runs.push_back({"KAIROS (one-shot)", {selection.chosen}});

  // Kairos+: Algorithm 1's evaluation sequence, then stay on its best.
  const auto kp = search::KairosPlusSearch(ub::RankedList(ranked), eval);
  {
    Transcript t{"KAIROS+", {}};
    for (const auto& rec : kp.history) t.visits.push_back(rec.config);
    t.visits.push_back(kp.best_config);
    runs.push_back(std::move(t));
  }

  // Ribbon-style BO exploration (Kairos distribution for fairness).
  search::SearchOptions bo_opt;
  bo_opt.subconfig_pruning = false;
  bo_opt.seed = 77;
  bo_opt.max_evals = 15;
  const auto bo = search::BayesOptSearch(space, eval, bo_opt);
  {
    Transcript t{"BO exploration", {}};
    for (const auto& rec : bo.history) t.visits.push_back(rec.config);
    t.visits.push_back(bo.best_config);
    runs.push_back(std::move(t));
  }

  TextTable table({"strategy", "reconfigs", "goodput (queries)",
                   "avg QPS over window", "cost ($)", "queries per $"});
  for (const Transcript& t : runs) {
    cloud::BillingMeter meter(catalog);
    double served = 0.0;
    Time clock = 0.0;
    cloud::Config current = start;
    auto serve_on = [&](const cloud::Config& cfg, Time duration) {
      served += eval(cfg) * duration;  // steady-state QPS x time
    };
    for (std::size_t i = 0; i < t.visits.size() && clock < window; ++i) {
      const cloud::Config& next = t.visits[i];
      const bool final_config = (i + 1 == t.visits.size());
      const Time budget_left = window - clock;
      const Time hold = final_config ? budget_left
                                     : std::min(dwell + launch_delay,
                                                budget_left);
      for (const cloud::ReconfigPhase& phase :
           cloud::PlanReconfiguration(current, next, launch_delay, hold)) {
        serve_on(phase.active, phase.duration);
        bench::OrDie(meter.Accrue(phase.billed, phase.duration));
      }
      current = next;
      clock += hold;
    }
    table.AddRow({t.name, std::to_string(t.visits.size()),
                  TextTable::Num(served, 0),
                  TextTable::Num(served / window),
                  TextTable::Num(meter.TotalCost(), 3),
                  TextTable::Num(served / meter.TotalCost(), 0)});
  }
  table.Print(std::cout,
              "Ablation: transient goodput with priced reconfigurations "
              "(RM2, log-normal -> Gaussian shift, 20-min window)");
  return 0;
}
