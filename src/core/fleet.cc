#include "core/fleet.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <initializer_list>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "chaos/injector.h"
#include "common/parallel.h"
#include "common/strings.h"
#include "latency/model_zoo.h"
#include "policy/registry.h"
#include "rpc/netem.h"
#include "sim/simulator.h"
#include "workload/query_source.h"

namespace kairos::core {
namespace {

/// Cheapest way to rent one base instance, the floor for a feasible share.
StatusOr<double> MinBasePrice(const cloud::Catalog& catalog) {
  double min_price = std::numeric_limits<double>::infinity();
  for (cloud::TypeId t = 0; t < catalog.size(); ++t) {
    if (catalog[t].is_base) min_price = std::min(min_price, catalog[t].price_per_hour);
  }
  if (!std::isfinite(min_price)) {
    return Status::InvalidArgument("catalog has no base instance type");
  }
  return min_price;
}

/// Builds a named per-model trace; nullptr for "" (caller-provided mix).
StatusOr<std::unique_ptr<workload::BatchDistribution>> MakeTrace(
    const std::string& name) {
  const std::string canonical = policy::CanonicalSchemeName(name);
  if (canonical.empty()) {
    return std::unique_ptr<workload::BatchDistribution>(nullptr);
  }
  if (canonical == "PRODUCTION") {
    return std::unique_ptr<workload::BatchDistribution>(
        std::make_unique<workload::LogNormalBatches>(
            workload::LogNormalBatches::Production()));
  }
  if (canonical == "GAUSSIAN") {
    return std::unique_ptr<workload::BatchDistribution>(
        std::make_unique<workload::GaussianBatches>(
            workload::GaussianBatches::Default()));
  }
  return Status::NotFound("unknown trace \"" + name +
                          "\"; named traces: GAUSSIAN, PRODUCTION, and the "
                          "file-backed STREAM / TRACE (with trace_path set; "
                          "\"\" keeps the caller-provided mix)");
}

/// True for the trace names that replay a CSV named by trace_path.
bool IsFileBackedTrace(const std::string& canonical) {
  return canonical == "STREAM" || canonical == "TRACE";
}

/// `status` prefixed with the serving name of the model it concerns —
/// every per-model failure carries exactly one such prefix.
Status ForModel(const std::string& name, const Status& status) {
  return Status(status.code(), "model " + name + ": " + status.message());
}

/// Barrier kinds of ServeAll's merged grid (the flags TelemetrySink
/// records per barrier).
enum : unsigned { kWindowBarrier = 1u, kDecisionBarrier = 2u,
                  kChaosBarrier = 4u };

/// A time this close below the horizon *is* the horizon.
constexpr double kHorizonEps = 1e-9;

/// The first action of one of `kinds` on each model, in list order: each
/// model takes at most one change of a kind per barrier. Targets must be
/// validated (< n) already.
std::vector<const control::ControlAction*> FirstPerModel(
    const std::vector<control::ControlAction>& actions, std::size_t n,
    std::initializer_list<control::ControlActionKind> kinds) {
  std::vector<bool> seen(n, false);
  std::vector<const control::ControlAction*> first;
  for (const control::ControlAction& action : actions) {
    if (std::find(kinds.begin(), kinds.end(), action.kind) == kinds.end() ||
        seen[action.model]) {
      continue;
    }
    seen[action.model] = true;
    first.push_back(&action);
  }
  return first;
}

/// Chaos-aware N-1 padding (DESIGN.md Sec. 11). Instances are assigned
/// to `domains` failure domains round-robin in launch order, so a
/// contiguous block of m instances of one type loses at most
/// ceil(m / domains) of them to a single domain outage. Padding each
/// type's planned count c to the smallest m with m - ceil(m / domains)
/// >= c therefore keeps the planned capacity alive through the loss of
/// the largest domain. The padded config is trimmed back — most
/// expensive type first, never below the planned core — until it fits
/// `share_per_hour`, so the share invariant (config cost <= share)
/// still holds.
cloud::Config PadForDomainLoss(const cloud::Config& core,
                               std::size_t domains, double share_per_hour,
                               const cloud::Catalog& catalog) {
  if (domains < 2) return core;
  std::vector<int> counts(core.NumTypes());
  std::vector<int> padded(core.NumTypes());
  for (cloud::TypeId t = 0; t < core.NumTypes(); ++t) {
    counts[t] = core.Count(t);
    int m = counts[t];
    if (m > 0) {
      const int d = static_cast<int>(domains);
      while (m - (m + d - 1) / d < counts[t]) ++m;
    }
    padded[t] = m;
  }
  double cost = cloud::Config(padded).CostPerHour(catalog);
  while (cost > share_per_hour + 1e-9) {
    cloud::TypeId trim = core.NumTypes();
    double trim_price = -1.0;
    for (cloud::TypeId t = 0; t < core.NumTypes(); ++t) {
      if (padded[t] > counts[t] && catalog[t].price_per_hour > trim_price) {
        trim = t;
        trim_price = catalog[t].price_per_hour;
      }
    }
    if (trim == core.NumTypes()) break;  // back at the core: stop trimming
    --padded[trim];
    cost -= trim_price;
  }
  return cloud::Config(std::move(padded));
}

}  // namespace

Fleet::Fleet(const cloud::Catalog& catalog, FleetOptions options)
    : catalog_(catalog), options_(std::move(options)) {}

StatusOr<Fleet> Fleet::Create(const cloud::Catalog& catalog,
                              std::vector<FleetModelOptions> models,
                              FleetOptions options) {
  if (models.empty()) {
    return Status::InvalidArgument("fleet needs at least one model");
  }
  if (options.budget_per_hour <= 0.0) {
    return Status::InvalidArgument("fleet budget must be positive, got " +
                                   FormatDollarsPerHour(options.budget_per_hour));
  }
  if (!PlannerRegistry::Global().Contains(options.planner)) {
    // Reuse the registry's error so the message lists the alternatives.
    return PlannerRegistry::Global().Build(options.planner).status();
  }
  auto allocator = AllocatorRegistry::Global().Build(options.allocator);
  if (!allocator.ok()) return allocator.status();

  // The fleet-unique serving name: the alias when given, the Table-3 name
  // otherwise. Aliases let one fleet shard the same model several times.
  const auto serve_name = [](const FleetModelOptions& m) -> const std::string& {
    return m.name.empty() ? m.model : m.name;
  };

  double total_weight = 0.0;
  for (const FleetModelOptions& m : models) {
    if (latency::TryFindModel(m.model) == nullptr) {
      return Status::NotFound("unknown model \"" + m.model +
                              "\"; Table-3 models: " +
                              latency::ModelZooNames());
    }
    if (m.weight <= 0.0) {
      return Status::InvalidArgument("model " + serve_name(m) +
                                     ": weight must be positive");
    }
    if (m.arrival_scale <= 0.0) {
      return Status::InvalidArgument("model " + serve_name(m) +
                                     ": arrival_scale must be positive");
    }
    if (m.qos_scale <= 0.0) {
      return Status::InvalidArgument("model " + serve_name(m) +
                                     ": qos_scale must be positive");
    }
    if (m.min_budget_per_hour < 0.0 || m.max_budget_per_hour < 0.0) {
      return Status::InvalidArgument(
          "model " + serve_name(m) + ": budget bounds must be non-negative");
    }
    const auto dup = std::count_if(models.begin(), models.end(),
                                   [&](const FleetModelOptions& other) {
                                     return serve_name(other) == serve_name(m);
                                   });
    if (dup > 1) {
      return Status::InvalidArgument("model " + serve_name(m) +
                                     " listed more than once");
    }
    total_weight += m.weight;
  }

  const auto min_base = MinBasePrice(catalog);
  if (!min_base.ok()) return min_base.status();

  Fleet fleet(catalog, options);
  for (const FleetModelOptions& m : models) {
    const double floor = std::max(m.min_budget_per_hour, *min_base);
    const double ceiling = m.max_budget_per_hour > 0.0
                               ? m.max_budget_per_hour
                               : std::numeric_limits<double>::infinity();
    if (floor > ceiling) {
      return Status::InvalidArgument(
          "model " + serve_name(m) + ": max budget " +
          FormatDollarsPerHour(ceiling) +
          " is below the effective floor " + FormatDollarsPerHour(floor) +
          " (cheapest base instance " + FormatDollarsPerHour(*min_base) + ")");
    }
    // File-backed traces (STREAM / TRACE) carry no batch mix of their
    // own: ObserveMix / MeasureAll fall back to the caller-provided mix
    // (nullptr entry), and ServeAll replays the file.
    std::unique_ptr<workload::BatchDistribution> mix;
    if (IsFileBackedTrace(policy::CanonicalSchemeName(m.trace))) {
      if (m.trace_path.empty()) {
        return Status::InvalidArgument(
            "model " + serve_name(m) + ": trace \"" + m.trace +
            "\" replays a file; set trace_path to a trace CSV");
      }
    } else {
      auto trace = MakeTrace(m.trace);
      if (!trace.ok()) return ForModel(serve_name(m), trace.status());
      mix = *std::move(trace);
    }
    fleet.names_.push_back(serve_name(m));
    fleet.budgets_.push_back(options.budget_per_hour * m.weight / total_weight);
    fleet.floors_.push_back(floor);
    fleet.ceilings_.push_back(ceiling);
    fleet.mixes_.push_back(std::move(mix));
    fleet.model_options_.push_back(m);
  }

  // Surface infeasible constraints at construction time. Probe-free
  // allocators (STATIC) can run in full; probe-driven ones (MARGINAL)
  // re-split at every PlanAll(), so only their floors are checked here.
  std::vector<double> create_shares = fleet.budgets_;
  if (!(*allocator)->NeedsProbes()) {
    AllocationProblem problem;
    problem.budget_per_hour = options.budget_per_hour;
    for (std::size_t i = 0; i < models.size(); ++i) {
      problem.models.push_back(AllocModel{fleet.names_[i], models[i].weight,
                                          models[i].arrival_scale,
                                          fleet.floors_[i], fleet.ceilings_[i]});
    }
    auto shares = (*allocator)->Allocate(problem);
    if (!shares.ok()) return shares.status();
    create_shares = *std::move(shares);
  } else {
    double floor_sum = 0.0;
    for (const double floor : fleet.floors_) floor_sum += floor;
    if (floor_sum > options.budget_per_hour + 1e-9) {
      return Status::Infeasible(
          "per-model budget floors sum to " + FormatDollarsPerHour(floor_sum) +
          ", more than the global budget " +
          FormatDollarsPerHour(options.budget_per_hour) +
          " (cheapest base instance " + FormatDollarsPerHour(*min_base) +
          " per model); raise the budget or drop a model");
    }
    // Seed the sessions with a feasible prior — every floor honored, the
    // spendable remainder split by weight — so direct Session() callers
    // never see shares that together overspend the envelope. The
    // allocator re-splits on every PlanAll().
    const double spendable =
        std::max(0.0, options.budget_per_hour - floor_sum);
    for (std::size_t i = 0; i < create_shares.size(); ++i) {
      create_shares[i] =
          std::min(fleet.floors_[i] +
                       spendable * models[i].weight / total_weight,
                   fleet.ceilings_[i]);
    }
  }

  for (std::size_t i = 0; i < models.size(); ++i) {
    KairosOptions session_options;
    session_options.budget_per_hour = create_shares[i];
    session_options.qos_scale = models[i].qos_scale;
    session_options.monitor_warmup = models[i].monitor_warmup;
    session_options.seed = options.seed;
    session_options.runtime = options.runtime;
    fleet.sessions_.emplace_back(catalog, models[i].model, session_options);
  }
  return fleet;
}

StatusOr<std::size_t> Fleet::IndexOf(const std::string& model) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == model) return i;
  }
  return Status::NotFound("model " + model + " is not in this fleet");
}

const workload::BatchDistribution& Fleet::MixFor(
    std::size_t i, const workload::BatchDistribution& fallback) const {
  return mixes_[i] != nullptr ? *mixes_[i] : fallback;
}

StatusOr<const Kairos*> Fleet::Session(const std::string& model) const {
  const auto i = IndexOf(model);
  if (!i.ok()) return i.status();
  return &sessions_[*i];
}

StatusOr<double> Fleet::BudgetFor(const std::string& model) const {
  const auto i = IndexOf(model);
  if (!i.ok()) return i.status();
  return budgets_[*i];
}

Status Fleet::ObserveMix(const std::string& model,
                         const workload::BatchDistribution& mix) {
  const auto i = IndexOf(model);
  if (!i.ok()) return i.status();
  sessions_[*i].ObserveMix(MixFor(*i, mix));
  return Status::Ok();
}

void Fleet::ObserveMixAll(const workload::BatchDistribution& mix) {
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    sessions_[i].ObserveMix(MixFor(i, mix));
  }
}

StatusOr<std::vector<std::size_t>> Fleet::Resolve(const FleetPlan& plan) const {
  std::vector<std::size_t> indices;
  indices.reserve(plan.models.size());
  for (const FleetModelPlan& model_plan : plan.models) {
    const auto i = IndexOf(model_plan.model);
    if (!i.ok()) return i.status();
    indices.push_back(*i);
  }
  return indices;
}

bool Fleet::NMinusOne(std::size_t i) const {
  return model_options_[i].plan_n_minus_one &&
         model_options_[i].failure_domains >= 2;
}

StatusOr<std::vector<double>> Fleet::SplitBudget(
    const BudgetAllocator& allocator, const PlannerBackend& backend,
    const std::vector<std::size_t>& indices, const std::vector<double>& demand,
    const std::vector<const workload::QueryMonitor*>& monitors,
    const search::SearchOptions& search) const {
  AllocationProblem problem;
  problem.budget_per_hour = options_.budget_per_hour;
  problem.step_per_hour = options_.allocation_step_per_hour;
  problem.threads = options_.planning_threads;
  for (std::size_t j = 0; j < indices.size(); ++j) {
    const std::size_t i = indices[j];
    problem.models.push_back(AllocModel{names_[i], model_options_[i].weight,
                                        demand[j], floors_[i], ceilings_[i]});
  }
  // The probe answers "what would the backend achieve for model j at
  // budget b" analytically (PlannerBackend::Probe), so the MARGINAL
  // allocator can afford one probe per candidate per increment; probes
  // of independent models run concurrently.
  problem.probe = [&](std::size_t j, double budget) -> StatusOr<double> {
    const Kairos& session = sessions_[indices[j]];
    PlannerContext ctx{&catalog_, &session.truth(), session.qos_ms(), budget};
    PlanRequest request;
    request.monitor = monitors[j];
    request.search = search;
    auto outcome = backend.Probe(ctx, request);
    if (!outcome.ok()) return outcome.status();
    return outcome->expected_qps;
  };
  return allocator.Allocate(problem);
}

StatusOr<PlannerOutcome> Fleet::PlanInShare(
    const PlannerBackend& backend, std::size_t i, double share,
    const workload::QueryMonitor& monitor, const search::SearchOptions& search,
    bool n_minus_one, telemetry::Telemetry* tel) const {
  const Kairos& session = sessions_[i];
  // Chaos-aware N-1 sizing (DESIGN.md Sec. 11): the core is planned inside
  // (d-1)/d of the share, never below the model's floor (a small share
  // shrunk by (d-1)/d must not turn a feasible model infeasible), then
  // padded so losing the largest failure domain leaves it intact.
  const bool padded = n_minus_one && NMinusOne(i);
  const std::size_t domains = model_options_[i].failure_domains;
  const double core_budget =
      padded ? std::max(share * static_cast<double>(domains - 1) /
                            static_cast<double>(domains),
                        std::min(share, floors_[i]))
             : share;
  PlannerContext ctx{&catalog_, &session.truth(), session.qos_ms(),
                     core_budget};
  PlanRequest request;
  request.monitor = &monitor;
  request.search = search;
  std::atomic<std::uint64_t> trials{0};
  if (backend.NeedsEvaluations()) {
    // Evaluation-driven backends (KAIROS+, BRUTE-FORCE) measure configs
    // against a snapshot of the planning mix in a nested simulation that
    // never touches a co-simulation clock.
    auto mix = monitor.Snapshot();
    if (!mix.ok()) return ForModel(names_[i], mix.status());
    request.eval = [&session,
                    mix = *std::move(mix)](const cloud::Config& config) {
      serving::EvalOptions eval_options;
      return session.MeasureThroughput(config, mix, eval_options).qps;
    };
    if (tel != nullptr) {
      // Per-trial evaluation spans. Trials may run on the search pool
      // (eval_threads > 1): span emission rides the tracer's per-shard
      // mutex, and the trial count lands on the fleet shard's counter
      // once, back on this thread.
      request.eval = [inner = std::move(request.eval), tracer = &tel->tracer(),
                      shard = tel->fleet_shard(), &trials,
                      name = names_[i]](const cloud::Config& config) {
        telemetry::ScopedSpan span(tracer, shard, "planner.eval");
        span.AddArg("model", name);
        span.AddArg("instances", std::to_string(config.TotalInstances()));
        trials.fetch_add(1, std::memory_order_relaxed);
        return inner(config);
      };
    }
  }
  auto outcome = backend.Plan(ctx, request);
  if (tel != nullptr && request.eval != nullptr) {
    tel->metrics().Add(tel->planner_trials(), tel->fleet_shard(),
                       static_cast<double>(trials.load()));
  }
  if (!outcome.ok()) return ForModel(names_[i], outcome.status());
  if (padded) {
    outcome->config =
        PadForDomainLoss(outcome->config, domains, share, catalog_);
  }
  return outcome;
}

StatusOr<FleetPlan> Fleet::PlanAll(const search::SearchOptions& search) const {
  auto backend = PlannerRegistry::Global().Build(options_.planner);
  if (!backend.ok()) return backend.status();
  auto allocator = AllocatorRegistry::Global().Build(options_.allocator);
  if (!allocator.ok()) return allocator.status();

  const std::size_t n = sessions_.size();
  std::vector<std::size_t> indices(n);
  std::vector<double> demand(n);
  std::vector<const workload::QueryMonitor*> monitors(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (sessions_[i].monitor().Count() == 0) {
      return Status::FailedPrecondition(
          "model " + names_[i] +
          ": monitor is empty; call ObserveMix before PlanAll");
    }
    indices[i] = i;
    demand[i] = model_options_[i].arrival_scale;
    monitors[i] = &sessions_[i].monitor();
  }
  auto shares =
      SplitBudget(**allocator, **backend, indices, demand, monitors, search);
  if (!shares.ok()) return shares.status();

  // Plan every model inside its share, concurrently: sessions, planner
  // backends and allocators are stateless const objects, and each worker
  // writes only its own slot.
  std::vector<Status> statuses(n);
  std::vector<PlannerOutcome> outcomes(n);
  ParallelFor(n, options_.planning_threads, [&](std::size_t i) {
    auto outcome = PlanInShare(**backend, i, (*shares)[i], *monitors[i],
                               search, /*n_minus_one=*/false, nullptr);
    if (!outcome.ok()) {
      statuses[i] = outcome.status();
    } else {
      outcomes[i] = *std::move(outcome);
    }
  });

  FleetPlan plan;
  plan.budget_per_hour = options_.budget_per_hour;
  for (std::size_t i = 0; i < n; ++i) {
    if (!statuses[i].ok()) return statuses[i];
    FleetModelPlan model_plan;
    model_plan.model = names_[i];
    model_plan.budget_per_hour = (*shares)[i];
    model_plan.qos_ms = sessions_[i].qos_ms();
    model_plan.outcome = std::move(outcomes[i]);
    model_plan.cost_per_hour = model_plan.outcome.config.CostPerHour(catalog_);
    plan.total_cost_per_hour += model_plan.cost_per_hour;
    plan.models.push_back(std::move(model_plan));
  }
  return plan;
}

/// One ServeAll co-simulation (DESIGN.md Sec. 9). It owns the shards —
/// each model's clock, engine, query stream, degraded fabric and live
/// monitor — and the state they share only at barriers: the barrier grid,
/// the budget shares, the planning monitors and the loan ledger. ServeAll
/// builds it, then walks the grid phase by phase: Advance (shards
/// concurrently), then joined on the driving thread SnapshotWindows,
/// DrainChaos, Control (decide, apply) and Record; Finish assembles the
/// result. Shards share no mutable state between barriers, so the outcome
/// is bit-identical for every serve_threads value. The run is its own
/// chaos target: faults land through it on quiesced shards.
class Fleet::ServeRun final : private chaos::ChaosTarget {
 public:
  ServeRun(const Fleet& fleet, const FleetPlan& plan,
           std::vector<std::size_t> indices, FleetServeOptions options)
      : fleet_(fleet),
        plan_(plan),
        indices_(std::move(indices)),
        options_(std::move(options)),
        n_(indices_.size()),
        tel_(options_.telemetry),
        ledger_(n_),
        sink_(tel_) {}

  /// Build/deploy: resolves the planes, deploys every shard, lays out
  /// the barrier grid.
  Status Build();

  /// The merged window/decision/chaos grid, time -> barrier kinds.
  const std::map<Time, unsigned>& barriers() const { return barriers_; }

  /// Advances every shard to `t`. A shard's own arrivals, completions,
  /// policy rounds, load shifts and live-monitor taps never touch another
  /// shard, so the shards run concurrently on a pool reused across
  /// barriers.
  void Advance(Time t);

  /// Closes every model's window at `t`.
  void SnapshotWindows(Time t);

  /// Applies every armed fault due at `t`, then copies freshly landed
  /// hard kills out of each engine's fault ledger — those fire on shard
  /// clocks between barriers (a notice's delayed kill), so the ledger is
  /// the only deterministic way to observe them.
  void DrainChaos(Time t);

  /// Decide, then apply: the controller reads a FleetTelemetry snapshot
  /// and its actions are applied to the live engines. The horizon only
  /// closes the final window — an action there could never serve a query
  /// — so the controller is not consulted at it.
  Status Control(Time t, bool window_closed);

  /// Fleet-shard telemetry at quiescence: event-queue depth gauges, the
  /// barrier counter and the sink's registry snapshot.
  void Record(Time t, unsigned kinds);

  /// Force-repays open loans, folds the ledger and assembles the result.
  FleetServeResult Finish();

 private:
  /// One grant of a borrower's loan.
  struct Loan {
    std::size_t donor = 0;
    double amount = 0.0;    ///< $/hr taken from the donor
    std::size_t event = 0;  ///< the borrow it belongs to
  };

  /// The loan ledger of kBorrowBudget (DESIGN.md Sec. 11): per borrower,
  /// the grants outstanding. Every grant is repaid — by an amount-0
  /// action, by a reallocation re-deriving every share, or at the horizon
  /// — always through Repay(). The totals fold the borrow events once, in
  /// borrow order: summing the same grants through two independently
  /// ordered accumulators could differ in the last ulp, and borrowed ==
  /// repaid is asserted bit for bit.
  class LoanLedger {
   public:
    explicit LoanLedger(std::size_t n) : loans_(n) {}

    /// Grants `borrower` up to `amount` $/hr taken proportionally from
    /// the other models' headroom (share above floor; a model owing loans
    /// of its own does not donate). Returns the donors charged, in model
    /// order, or nullopt when no headroom exists (loan declined).
    std::optional<std::vector<std::size_t>> Borrow(
        std::size_t borrower, double amount, std::vector<double>& shares,
        const std::vector<double>& floors);

    /// Returns every outstanding grant of `borrower` to its donors'
    /// shares; the repaid grants in grant order (empty if none).
    std::vector<Loan> Repay(std::size_t borrower, std::vector<double>& shares);

    void RepayAll(std::vector<double>& shares) {
      for (std::size_t j = 0; j < loans_.size(); ++j) Repay(j, shares);
    }

    std::size_t borrows() const { return events_.size(); }
    std::size_t paybacks() const { return paybacks_; }

    /// {borrowed, repaid} $/hr, both folded in borrow order.
    std::pair<double, double> Totals() const {
      double borrowed = 0.0;
      double repaid = 0.0;
      for (const Event& event : events_) {
        borrowed += event.granted;
        if (event.repaid) repaid += event.granted;
      }
      return {borrowed, repaid};
    }

   private:
    struct Event {
      double granted = 0.0;  ///< $/hr moved to the borrower
      bool repaid = false;
    };
    std::vector<std::vector<Loan>> loans_;  ///< per borrower
    std::vector<Event> events_;             ///< borrow order
    std::size_t paybacks_ = 0;
  };

  Status ResolvePlanes();
  Status DeployShard(std::size_t j);
  Status Wire();
  void LayBarriers();
  void SnapshotTelemetry(Time t, bool window_closed);
  void OpenSpan(std::optional<telemetry::ScopedSpan>& span,
                const char* name) const;

  Status Apply(Time t, const std::vector<control::ControlAction>& actions);
  Status ValidateTarget(const control::ControlAction& action) const;
  Status ResetMonitors(Time t,
                       const std::vector<control::ControlAction>& actions);
  StatusOr<bool> Reallocate(Time t,
                            const std::vector<control::ControlAction>& actions);
  Status ChangeLoans(Time t,
                     const std::vector<control::ControlAction>& actions);
  Status Recover(Time t, const std::vector<control::ControlAction>& actions);
  Status SetShed(Time t, const std::vector<control::ControlAction>& actions);
  Status Replan(std::size_t j, double budget);
  void Log(Time t, const control::ControlAction& action, std::string model) {
    control_log_.push_back(
        FleetControlEvent{t, action.kind, std::move(model), action.reason});
  }

  // chaos::ChaosTarget, over the shards.
  std::size_t NumModels() const override { return n_; }
  const std::string& ModelName(std::size_t m) const override {
    return names_[m];
  }
  std::size_t LiveInstances(std::size_t m) const override {
    return engines_[m]->AssignableInstances();
  }
  std::size_t Preempt(std::size_t m, std::size_t count,
                      double notice_s) override {
    return engines_[m]->PreemptInstances(count, notice_s);
  }
  std::size_t Kill(std::size_t m, std::size_t count) override {
    return engines_[m]->KillInstances(count);
  }
  std::size_t NumDomains(std::size_t m) const override {
    return engines_[m]->NumDomains();
  }
  std::size_t PreemptDomain(std::size_t m, std::size_t domain,
                            double notice_s) override {
    return engines_[m]->PreemptDomain(domain, notice_s);
  }
  std::size_t KillDomain(std::size_t m, std::size_t domain) override {
    return engines_[m]->KillDomain(domain);
  }
  void DegradeNetwork(std::size_t m, const rpc::NetworkModel& net) override {
    // The engine only borrows the fabric; the run owns it.
    fabrics_[m] = std::make_unique<rpc::NetworkModel>(net);
    engines_[m]->SetNetwork(fabrics_[m].get());
  }
  void RestoreNetwork(std::size_t m) override {
    engines_[m]->SetNetwork(nullptr);
  }

  const Fleet& fleet_;
  const FleetPlan& plan_;
  const std::vector<std::size_t> indices_;  ///< fleet index per plan model
  const FleetServeOptions options_;
  const std::size_t n_;
  /// The telemetry plane (DESIGN.md Sec. 13); nullptr disables it — no
  /// instruments, spans or snapshots, bit-identical to a build without it.
  telemetry::Telemetry* const tel_;
  std::vector<std::string> names_;  ///< serving names, plan order
  std::vector<double> floors_;      ///< per-model floors, plan order
  std::unique_ptr<PlannerBackend> backend_;
  std::unique_ptr<BudgetAllocator> allocator_;
  std::unique_ptr<control::FleetController> controller_;
  std::shared_ptr<chaos::ChaosInjector> injector_;

  // The shards. Clocks come first and engines last, so the engines are
  // destroyed before what they point into, and in-flight events (which
  // hold engine pointers) are freed after the engines themselves.
  std::vector<std::unique_ptr<sim::Simulator>> clocks_;
  std::vector<std::unique_ptr<workload::QuerySource>> streams_;
  std::vector<std::unique_ptr<rpc::NetworkModel>> fabrics_;
  std::vector<workload::QueryMonitor> live_monitors_;
  std::vector<telemetry::EngineInstruments> instruments_;
  std::vector<std::unique_ptr<serving::Engine>> engines_;
  std::vector<std::vector<serving::WindowedMetrics>> windows_;
  std::unique_ptr<ThreadPool> pool_;
  std::map<Time, unsigned> barriers_;

  // Barrier-shared control state. Model j's planning monitor starts as
  // its session monitor (what the initial plan was built against) and
  // moves to the live sliding window after a kResetMonitor.
  std::vector<double> shares_;
  std::vector<const workload::QueryMonitor*> plan_monitors_;
  LoanLedger ledger_;
  control::FleetTelemetry snapshot_;
  Time last_realloc_time_ = 0.0;
  std::vector<std::size_t> offered_at_realloc_;
  /// Engine fault-ledger entries already copied into chaos_log_.
  std::vector<std::size_t> faults_drained_;
  std::size_t reallocations_ = 0;
  std::size_t monitor_resets_ = 0;
  std::size_t respreads_ = 0;
  std::size_t failovers_ = 0;
  std::size_t shed_actions_ = 0;
  std::vector<FleetControlEvent> control_log_;
  std::vector<FleetChaosEvent> chaos_log_;
  telemetry::TelemetrySink sink_;
};

std::optional<std::vector<std::size_t>> Fleet::ServeRun::LoanLedger::Borrow(
    std::size_t borrower, double amount, std::vector<double>& shares,
    const std::vector<double>& floors) {
  const std::size_t n = shares.size();
  std::vector<double> headroom(n, 0.0);
  double headroom_total = 0.0;
  for (std::size_t m = 0; m < n; ++m) {
    if (m == borrower || !loans_[m].empty()) continue;
    headroom[m] = std::max(shares[m] - floors[m], 0.0);
    headroom_total += headroom[m];
  }
  const double grant = std::min(amount, headroom_total);
  if (grant <= 1e-9) return std::nullopt;
  // `granted` re-accumulates the individual takes so the repayment (which
  // sums the same grants) matches it bit for bit.
  std::vector<std::size_t> donors;
  double granted = 0.0;
  for (std::size_t m = 0; m < n; ++m) {
    if (headroom[m] <= 0.0) continue;
    const double take = grant * headroom[m] / headroom_total;
    if (take <= 0.0) continue;
    shares[m] -= take;
    loans_[borrower].push_back({m, take, events_.size()});
    granted += take;
    donors.push_back(m);
  }
  shares[borrower] += granted;
  events_.push_back({granted, false});
  return donors;
}

std::vector<Fleet::ServeRun::Loan> Fleet::ServeRun::LoanLedger::Repay(
    std::size_t borrower, std::vector<double>& shares) {
  std::vector<Loan> repaid_loans = std::exchange(loans_[borrower], {});
  if (repaid_loans.empty()) return repaid_loans;
  double repaid = 0.0;
  for (const Loan& loan : repaid_loans) {
    shares[loan.donor] += loan.amount;
    repaid += loan.amount;
    events_[loan.event].repaid = true;
  }
  shares[borrower] -= repaid;
  ++paybacks_;
  return repaid_loans;
}

Status Fleet::ServeRun::Build() {
  for (const std::size_t i : indices_) {
    names_.push_back(fleet_.names_[i]);
    floors_.push_back(fleet_.floors_[i]);
  }
  for (const FleetLoadShift& shift : options_.shifts) {
    // Must name a model of the *served plan* — a fleet member outside
    // the plan would be a silently dropped no-op, not a load change.
    if (std::find(names_.begin(), names_.end(), shift.model) == names_.end()) {
      return Status::NotFound("load shift at " + std::to_string(shift.time_s) +
                              "s names model " + shift.model +
                              ", which is not in the served plan");
    }
    if (shift.arrival_scale <= 0.0) {
      return Status::InvalidArgument("load shift for " + shift.model +
                                     ": arrival_scale must be positive");
    }
    if (shift.time_s < 0.0 || shift.time_s > options_.duration_s) {
      return Status::InvalidArgument(
          "load shift for " + shift.model + " at " +
          std::to_string(shift.time_s) + "s is outside the horizon");
    }
  }
  const Status resolved = ResolvePlanes();
  if (!resolved.ok()) return resolved;
  windows_.resize(n_);
  clocks_.reserve(n_);
  engines_.reserve(n_);
  streams_.reserve(n_);
  // Reserve the whole window schedule up front so barrier snapshots never
  // reallocate mid-run (part of the zero-steady-state-alloc contract the
  // sustained perf gate asserts).
  for (auto& windows : windows_) {
    windows.reserve(
        static_cast<std::size_t>(options_.duration_s / options_.window_s) + 2);
  }
  for (std::size_t j = 0; j < n_; ++j) {
    const Status deployed = DeployShard(j);
    if (!deployed.ok()) return deployed;
  }
  return Wire();
}

Status Fleet::ServeRun::ResolvePlanes() {
  if (options_.controller.empty()) {
    // Knobs without a controller would be dropped silently; misconfiguration
    // fails loudly like every other knob path.
    if (!options_.controller_knobs.empty()) {
      return Status::InvalidArgument(
          "controller_knobs were given but no controller is named; set "
          "FleetServeOptions::controller (registered controllers: " +
          JoinComma(control::ControllerRegistry::Global().ListNames()) + ")");
    }
  } else {
    auto built = control::ControllerRegistry::Global().Build(
        options_.controller, options_.controller_knobs);
    if (!built.ok()) return built.status();
    controller_ = *std::move(built);
  }

  // No injector means no chaos code runs at all: no extra barriers, no
  // fault reads, no network fabric — the run is bit-identical to a
  // chaos-free build (tests/chaos_test.cc).
  if (!options_.chaos.empty() && options_.injector != nullptr) {
    return Status::InvalidArgument(
        "both FleetServeOptions::chaos and ::injector are set; name a "
        "registered injector or pass a programmatic one, not both");
  }
  if (options_.chaos.empty() && !options_.chaos_knobs.empty()) {
    return Status::InvalidArgument(
        "chaos_knobs were given but no chaos injector is named; set "
        "FleetServeOptions::chaos (registered injectors: " +
        JoinComma(chaos::ChaosRegistry::Global().ListNames()) + ")");
  }
  injector_ = options_.injector;
  if (!options_.chaos.empty()) {
    auto built = chaos::ChaosRegistry::Global().Build(options_.chaos,
                                                      options_.chaos_knobs);
    if (!built.ok()) return built.status();
    injector_ = *std::move(built);
  }

  auto backend = PlannerRegistry::Global().Build(fleet_.options_.planner);
  if (!backend.ok()) return backend.status();
  backend_ = *std::move(backend);
  auto allocator = AllocatorRegistry::Global().Build(fleet_.options_.allocator);
  if (!allocator.ok()) return allocator.status();
  allocator_ = *std::move(allocator);
  if (controller_ != nullptr) {
    for (std::size_t j = 0; j < n_; ++j) {
      if (fleet_.sessions_[indices_[j]].monitor().Count() == 0) {
        return Status::FailedPrecondition(
            "model " + names_[j] +
            ": monitor is empty; call ObserveMix before ServeAll with a "
            "reallocation controller");
      }
    }
  }

  if (tel_ != nullptr) {
    if (tel_->num_model_shards() != n_) {
      return Status::InvalidArgument(
          "FleetServeOptions::telemetry was created for " +
          std::to_string(tel_->num_model_shards()) +
          " model shards, but the served plan has " + std::to_string(n_));
    }
    for (std::size_t j = 0; j < n_; ++j) {
      if (tel_->tracer().shard_names()[j] != names_[j]) {
        return Status::InvalidArgument(
            "FleetServeOptions::telemetry shard " + std::to_string(j) +
            " is named \"" + tel_->tracer().shard_names()[j] +
            "\" but the served plan's model " + std::to_string(j) +
            " is \"" + names_[j] +
            "\"; create the Telemetry with the plan's model names in "
            "plan order");
      }
    }
  }
  return Status::Ok();
}

Status Fleet::ServeRun::DeployShard(std::size_t j) {
  const std::size_t i = indices_[j];
  const FleetModelOptions& model = fleet_.model_options_[i];
  cloud::Config config = plan_.models[j].outcome.config;
  if (fleet_.NMinusOne(i)) {
    // An N-1 sized model deploys its padded core, not the plan's nominal
    // configuration; every in-serve replan keeps the same sizing.
    auto sized = fleet_.PlanInShare(
        *backend_, i, plan_.models[j].budget_per_hour,
        fleet_.sessions_[i].monitor(), options_.search,
        /*n_minus_one=*/true, nullptr);
    if (!sized.ok()) return sized.status();
    config = std::move(sized->config);
  }
  auto runtime = fleet_.Deploy(names_[j], config);
  if (!runtime.ok()) return runtime.status();
  serving::EngineOptions engine_options;
  // Overload is an expected transient here (that is what reallocation
  // reacts to), so the batch early-abort heuristic is off.
  engine_options.run.abort_violation_fraction = 0.0;
  engine_options.run.keep_latencies = options_.keep_latencies;
  engine_options.admission = options_.admission;
  engine_options.launch_lag_s = options_.launch_lag_s;
  engine_options.failure_domains =
      std::max<std::size_t>(model.failure_domains, 1);
  engine_options.seed = fleet_.options_.seed + 1000003 * (j + 1);
  clocks_.push_back(std::make_unique<sim::Simulator>());
  auto engine = runtime->MakeEngine(engine_options, clocks_.back().get());
  if (!engine.ok()) return engine.status();

  workload::QuerySourceSpec source_spec;
  const std::string trace_name = policy::CanonicalSchemeName(model.trace);
  if (trace_name == "STREAM") {
    source_spec.source = "STREAM";
    source_spec.path = model.trace_path;
    source_spec.chunk_bytes = model.trace_chunk_bytes;
  } else if (trace_name == "TRACE") {
    // The materialized oracle of the STREAM path: same file, read
    // eagerly through the same parser, replayed from memory.
    auto trace = workload::ReadTraceCsv(model.trace_path);
    if (!trace.ok()) return ForModel(names_[j], trace.status());
    source_spec.source = "TRACE";
    source_spec.trace = *std::move(trace);
  } else {
    source_spec.source = trace_name.empty() ? "PRODUCTION" : trace_name;
  }
  source_spec.rate_qps = options_.base_rate_qps * model.arrival_scale;
  auto stream = workload::QuerySourceRegistry::Global().Build(source_spec);
  if (!stream.ok()) return ForModel(names_[j], stream.status());
  const Status attached = (*engine)->SubmitSource(**stream);
  if (!attached.ok()) return attached;
  engines_.push_back(*std::move(engine));
  streams_.push_back(*std::move(stream));
  return Status::Ok();
}

Status Fleet::ServeRun::Wire() {
  // Attach instruments after every engine exists: the vector is sized
  // once, so the pointers the engines hold stay valid for the whole run.
  if (tel_ != nullptr) {
    instruments_.reserve(n_);
    for (std::size_t j = 0; j < n_; ++j) {
      instruments_.push_back(tel_->InstrumentsFor(j));
      engines_[j]->SetTelemetry(&instruments_[j]);
    }
  }
  // Load shifts are per-shard events: scheduled on the owning shard's own
  // clock, they fire inside that shard's barrier-to-barrier advance.
  for (const FleetLoadShift& shift : options_.shifts) {
    for (std::size_t j = 0; j < n_; ++j) {
      if (names_[j] != shift.model) continue;
      serving::Engine* engine = engines_[j].get();
      const double scale = shift.arrival_scale;
      clocks_[j]->At(shift.time_s, [engine, scale] {
        (void)engine->SetArrivalScale(scale);
      });
    }
  }
  fabrics_.resize(n_);
  if (injector_ != nullptr) {
    const chaos::ChaosSchedule schedule{options_.duration_s, options_.window_s,
                                        fleet_.options_.seed, n_};
    const Status armed = injector_->Arm(schedule);
    if (!armed.ok()) return armed;
  }
  // Live batch-mix monitors, one per shard, fed in-shard (one Observe per
  // arrival, by the shard's own worker) so they stay deterministic under
  // any serve_threads. Their planning reference is the session monitor's
  // mean; a kResetMonitor swaps the shard's planning mix to this window.
  // Only mix-reading controllers (DRIFT, a COMPOSITE containing it) pay
  // the per-arrival tap.
  if (controller_ != nullptr && controller_->NeedsLiveMix()) {
    live_monitors_.reserve(n_);
    for (std::size_t j = 0; j < n_; ++j) {
      const std::size_t i = indices_[j];
      live_monitors_.emplace_back(fleet_.model_options_[i].monitor_warmup);
      live_monitors_.back().MarkPlanningReference(
          fleet_.sessions_[i].monitor().MeanBatch());
      engines_[j]->SetMonitorTap(&live_monitors_.back());
    }
  }
  LayBarriers();

  shares_.resize(n_);
  plan_monitors_.resize(n_);
  offered_at_realloc_.assign(n_, 0);
  faults_drained_.assign(n_, 0);
  // Run-invariant snapshot fields are filled once; SnapshotTelemetry only
  // refreshes what moves. The window vectors never move, so the pointers
  // stay valid for every Decide() call.
  snapshot_.duration_s = options_.duration_s;
  snapshot_.window_s = options_.window_s;
  snapshot_.budget_per_hour = fleet_.options_.budget_per_hour;
  snapshot_.models.resize(n_);
  for (std::size_t j = 0; j < n_; ++j) {
    const std::size_t i = indices_[j];
    shares_[j] = plan_.models[j].budget_per_hour;
    plan_monitors_[j] = &fleet_.sessions_[i].monitor();
    snapshot_.models[j].model = names_[j];
    snapshot_.models[j].arrival_scale = fleet_.model_options_[i].arrival_scale;
    snapshot_.models[j].qos_ms = fleet_.sessions_[i].qos_ms();
    snapshot_.models[j].windows = &windows_[j];
  }
  const std::size_t workers = ParallelismFor(options_.serve_threads, n_);
  if (workers > 1) pool_ = std::make_unique<ThreadPool>(workers);
  return Status::Ok();
}

void Fleet::ServeRun::LayBarriers() {
  // Window boundaries shared by every model (the horizon always closes
  // the last, possibly partial, window) merged with the controller's
  // decision times and the injector's fault times, so faults land at
  // their scheduled time rather than at the next window boundary (faults
  // at t <= 0 land in the pre-walk drain). Boundaries are k * width — not
  // accumulated — so a non-representable width cannot drift into a
  // duplicate boundary just below the horizon.
  const auto inside = [this](Time t) {
    return t > 0.0 && t < options_.duration_s - kHorizonEps;
  };
  for (std::size_t k = 1;; ++k) {
    const double t = static_cast<double>(k) * options_.window_s;
    if (t >= options_.duration_s - kHorizonEps) break;
    barriers_[t] |= kWindowBarrier;
  }
  barriers_[options_.duration_s] |= kWindowBarrier;
  if (controller_ != nullptr) {
    const control::ControlSchedule schedule{options_.duration_s,
                                            options_.window_s};
    for (const Time t : controller_->DecisionTimes(schedule)) {
      if (inside(t)) barriers_[t] |= kDecisionBarrier;
    }
  }
  if (injector_ != nullptr) {
    for (const Time t : injector_->FaultTimes()) {
      if (inside(t)) barriers_[t] |= kChaosBarrier;
    }
  }
}

void Fleet::ServeRun::OpenSpan(std::optional<telemetry::ScopedSpan>& span,
                               const char* name) const {
  if (tel_ != nullptr) span.emplace(&tel_->tracer(), tel_->fleet_shard(), name);
}

void Fleet::ServeRun::Advance(Time t) {
  if (pool_ != nullptr) {
    ParallelFor(*pool_, n_, [this, t](std::size_t j) {
      engines_[j]->AdvanceTo(t);
    });
  } else {
    for (std::size_t j = 0; j < n_; ++j) engines_[j]->AdvanceTo(t);
  }
}

void Fleet::ServeRun::SnapshotWindows(Time t) {
  std::optional<telemetry::ScopedSpan> span;
  OpenSpan(span, "window.snapshot");
  if (span.has_value()) span->AddArg("t_s", std::to_string(t));
  for (std::size_t j = 0; j < n_; ++j) {
    windows_[j].push_back(engines_[j]->TakeWindow());
    if (options_.window_probe) options_.window_probe(j, windows_[j].back());
  }
}

void Fleet::ServeRun::DrainChaos(Time t) {
  if (injector_ == nullptr) return;
  // chaos_log_ is re-sorted by time once, in Finish().
  const auto record = [this](std::size_t model, FleetChaosEvent event) {
    if (tel_ != nullptr) {
      tel_->metrics().Add(tel_->chaos_faults(), tel_->fleet_shard());
      tel_->tracer().EmitInstant(model < n_ ? model : tel_->fleet_shard(),
                                 "chaos.fault",
                                 {{"kind", chaos::ChaosEventName(event.kind)},
                                  {"detail", event.detail}});
    }
    chaos_log_.push_back(std::move(event));
  };
  if (t < options_.duration_s - kHorizonEps) {
    for (chaos::ChaosEvent& event : injector_->Apply(t, *this)) {
      record(event.model,
             FleetChaosEvent{event.time, event.kind, names_[event.model],
                             std::move(event.detail)});
    }
  }
  for (std::size_t j = 0; j < n_; ++j) {
    const std::vector<serving::Engine::InstanceFault>& faults =
        engines_[j]->Faults();
    for (; faults_drained_[j] < faults.size(); ++faults_drained_[j]) {
      const serving::Engine::InstanceFault& fault = faults[faults_drained_[j]];
      record(j, FleetChaosEvent{
                    fault.time,
                    fault.preemption ? chaos::ChaosEventKind::kPreemption
                                     : chaos::ChaosEventKind::kInstanceDeath,
                    names_[j],
                    "hard kill; " + std::to_string(fault.requeued) +
                        " in-flight quer" +
                        (fault.requeued == 1 ? "y" : "ies") + " requeued"});
    }
  }
}

void Fleet::ServeRun::SnapshotTelemetry(Time t, bool window_closed) {
  snapshot_.now = t;
  snapshot_.window_closed = window_closed;
  snapshot_.windows_closed = n_ > 0 ? windows_[0].size() : 0;
  snapshot_.last_reallocation = last_realloc_time_;
  for (std::size_t j = 0; j < n_; ++j) {
    control::ModelTelemetry& model = snapshot_.models[j];
    const serving::Engine& engine = *engines_[j];
    model.share_per_hour = shares_[j];
    model.offered = engine.Offered();
    model.served = engine.Served();
    model.backlog = engine.Backlog();
    const double elapsed = std::max(t - last_realloc_time_, 1e-9);
    model.observed_rate_qps =
        static_cast<double>(model.offered - offered_at_realloc_[j]) / elapsed;
    const bool live = !live_monitors_.empty();
    // After a kResetMonitor the planning monitor *is* the live window;
    // what the current configuration was planned against is then the
    // frozen reference, not the window's moving mean (which would make
    // plan_mean_batch track live_mean_batch and contradict `drift`).
    model.plan_mean_batch = live && plan_monitors_[j] == &live_monitors_[j]
                                ? live_monitors_[j].reference_mean_batch()
                                : plan_monitors_[j]->MeanBatch();
    model.live_mean_batch = live ? live_monitors_[j].MeanBatch() : 0.0;
    model.live_queries = live ? live_monitors_[j].Count() : 0;
    model.drift = live ? live_monitors_[j].BatchMixDrift() : 0.0;
    model.live_instances = engine.AssignableInstances();
    model.target_instances =
        static_cast<std::size_t>(engine.target_config().TotalInstances());
    model.pending_instances = engine.PendingInstances();
    model.instances_lost = engine.InstancesLost();
    model.preemption_notices = engine.PreemptionNotices();
    model.rejected = engine.Rejected();
    model.shed = engine.Shed();
    model.shed_deadline_s = engine.admission().deadline_s;
    // The spot discount this model's capacity is renting at right now
    // (1.0 = on-demand): the injector's market quote at the barrier time.
    const cloud::SpotMarket* market =
        injector_ != nullptr ? injector_->Market(j) : nullptr;
    model.spot_discount = market != nullptr ? market->DiscountAt(t) : 1.0;
  }
}

Status Fleet::ServeRun::Control(Time t, bool window_closed) {
  if (controller_ == nullptr || t >= options_.duration_s - kHorizonEps) {
    return Status::Ok();
  }
  SnapshotTelemetry(t, window_closed);
  std::optional<telemetry::ScopedSpan> span;
  OpenSpan(span, "control.decide");
  if (span.has_value()) span->AddArg("controller", controller_->Name());
  const std::vector<control::ControlAction> actions =
      controller_->Decide(snapshot_);
  if (span.has_value()) {
    // The chosen actions ride the span as args — this is how a trace
    // answers "why did the controller fire here?".
    span->AddArg("actions", std::to_string(actions.size()));
    for (std::size_t a = 0; a < actions.size(); ++a) {
      span->AddArg(
          "action" + std::to_string(a),
          std::string(control::ControlActionName(actions[a].kind)) +
              (actions[a].model < n_ ? " " + names_[actions[a].model]
                                     : std::string()) +
              (actions[a].reason.empty() ? "" : ": " + actions[a].reason));
    }
    tel_->metrics().Add(tel_->control_actions(), tel_->fleet_shard(),
                        static_cast<double>(actions.size()));
  }
  return Apply(t, actions);
}

Status Fleet::ServeRun::Apply(
    Time t, const std::vector<control::ControlAction>& actions) {
  // The whole list is checked before any of it is applied.
  for (const control::ControlAction& action : actions) {
    const Status valid = ValidateTarget(action);
    if (!valid.ok()) return valid;
  }
  // Phase order, whatever order the controller listed its actions in:
  // monitor resets (a same-barrier re-plan must read the post-reset mix),
  // the reallocation, loan changes (so a same-barrier kFailover replans a
  // borrower at its new share), recoveries, and shed knobs last.
  Status status = ResetMonitors(t, actions);
  if (!status.ok()) return status;
  const StatusOr<bool> reallocated = Reallocate(t, actions);
  if (!reallocated.ok()) return reallocated.status();
  // A re-split already replanned and reconfigured every model at a
  // freshly derived share: loan changes and recoveries are superseded.
  if (!*reallocated) {
    status = ChangeLoans(t, actions);
    if (!status.ok()) return status;
    status = Recover(t, actions);
    if (!status.ok()) return status;
  }
  // Shedding is an admission regime, not capacity, so a same-barrier
  // reallocation does not supersede it.
  return SetShed(t, actions);
}

Status Fleet::ServeRun::ValidateTarget(
    const control::ControlAction& action) const {
  if (action.kind == control::ControlActionKind::kReallocate) {
    return Status::Ok();  // fleet-wide: `model` is ignored
  }
  if (action.model >= n_) {
    return Status::InvalidArgument(
        "controller " + controller_->Name() + " targeted model index " +
        std::to_string(action.model) + " with " +
        control::ControlActionName(action.kind) +
        ", but the served plan has " + std::to_string(n_) + " models");
  }
  if (action.kind == control::ControlActionKind::kBorrowBudget &&
      action.amount_per_hour < 0.0) {
    return Status::InvalidArgument(
        "controller " + controller_->Name() +
        " emitted BORROW_BUDGET with a negative amount (" +
        FormatDollarsPerHour(action.amount_per_hour) + ")");
  }
  return Status::Ok();
}

Status Fleet::ServeRun::ResetMonitors(
    Time t, const std::vector<control::ControlAction>& actions) {
  for (const control::ControlAction& action : actions) {
    if (action.kind != control::ControlActionKind::kResetMonitor) continue;
    if (live_monitors_.empty()) {
      // Per the FleetController contract a reset-emitting controller must
      // declare NeedsLiveMix(); silently dropping the reset would leave
      // replans on the stale mix with no trace.
      return Status::FailedPrecondition(
          "controller " + controller_->Name() +
          " emitted kResetMonitor but NeedsLiveMix() is false, so no live "
          "mix exists to reset to");
    }
    // An empty live window would leave nothing to plan against; the reset
    // waits until the stream has produced samples.
    workload::QueryMonitor& live = live_monitors_[action.model];
    if (live.Count() == 0) continue;
    plan_monitors_[action.model] = &live;
    live.MarkPlanningReference();
    ++monitor_resets_;
    Log(t, action, names_[action.model]);
  }
  return Status::Ok();
}

StatusOr<bool> Fleet::ServeRun::Reallocate(
    Time t, const std::vector<control::ControlAction>& actions) {
  // At most one re-split per barrier: it already replans every model.
  const auto action = std::find_if(
      actions.begin(), actions.end(), [](const control::ControlAction& a) {
        return a.kind == control::ControlActionKind::kReallocate;
      });
  if (action == actions.end()) return false;
  // A re-split re-derives every share from the global budget, returning
  // all borrowed headroom to the pool: every open loan is repaid first
  // (the re-split then overwrites the shares), keeping borrowed == repaid
  // exact.
  ledger_.RepayAll(shares_);
  const double interval_s = action->interval_s > 0.0
                                ? action->interval_s
                                : std::max(t - last_realloc_time_, 1e-9);
  std::optional<telemetry::ScopedSpan> span;
  OpenSpan(span, "fleet.realloc");
  if (span.has_value()) span->AddArg("interval_s", std::to_string(interval_s));
  // The arrival rates observed over the interval are the demand weights.
  std::vector<double> demand(n_);
  for (std::size_t j = 0; j < n_; ++j) {
    const std::size_t offered_now = engines_[j]->Offered();
    const double observed_rate =
        static_cast<double>(offered_now - offered_at_realloc_[j]) / interval_s;
    offered_at_realloc_[j] = offered_now;
    demand[j] = std::max(observed_rate, 1e-6);
  }
  auto split = fleet_.SplitBudget(*allocator_, *backend_, indices_, demand,
                                  plan_monitors_, options_.search);
  if (!split.ok()) return split.status();
  for (std::size_t j = 0; j < n_; ++j) {
    const Status replanned = Replan(j, (*split)[j]);
    if (!replanned.ok()) return replanned;
  }
  shares_ = *std::move(split);
  ++reallocations_;
  last_realloc_time_ = t;
  Log(t, *action, "");
  return true;
}

Status Fleet::ServeRun::ChangeLoans(
    Time t, const std::vector<control::ControlAction>& actions) {
  for (const control::ControlAction* action : FirstPerModel(
           actions, n_, {control::ControlActionKind::kBorrowBudget})) {
    const std::size_t j = action->model;
    // When a same-barrier kFailover names this model, the ledger only
    // moves the shares here and leaves the replan to it — one replan,
    // not two.
    const bool replanned_later = std::any_of(
        actions.begin(), actions.end(), [j](const control::ControlAction& a) {
          return a.kind == control::ControlActionKind::kFailover &&
                 a.model == j;
        });
    std::vector<std::size_t> replans;
    if (action->amount_per_hour > 0.0) {
      auto donors = ledger_.Borrow(j, action->amount_per_hour, shares_,
                                   floors_);
      if (!donors.has_value()) continue;  // no headroom: loan declined
      // A donor's plan only fits its shrunk share after a replan.
      replans = *std::move(donors);
      if (!replanned_later) replans.push_back(j);
    } else {
      // Amount 0 repays: the borrower shrinks back inside its restored
      // share first, then the donors replan up to reclaim theirs.
      const std::vector<Loan> repaid = ledger_.Repay(j, shares_);
      if (repaid.empty()) continue;
      if (!replanned_later) replans.push_back(j);
      for (const Loan& loan : repaid) replans.push_back(loan.donor);
    }
    for (const std::size_t m : replans) {
      const Status replanned = Replan(m, shares_[m]);
      if (!replanned.ok()) return replanned;
    }
    Log(t, *action, names_[j]);
  }
  return Status::Ok();
}

Status Fleet::ServeRun::Recover(
    Time t, const std::vector<control::ControlAction>& actions) {
  for (const control::ControlAction* action :
       FirstPerModel(actions, n_,
                     {control::ControlActionKind::kRespread,
                      control::ControlActionKind::kFailover})) {
    const std::size_t j = action->model;
    if (action->kind == control::ControlActionKind::kFailover) {
      const Status replanned = Replan(j, shares_[j]);
      if (!replanned.ok()) return replanned;
      ++failovers_;
    } else {
      // Re-issue the current target: lost (and retiring) capacity drops
      // out of the live count, so the engine schedules replacement
      // launches now — fired on a notice, the launch lag overlaps the
      // victim's notice window.
      const Status respread =
          engines_[j]->Reconfigure(engines_[j]->target_config());
      if (!respread.ok()) return respread;
      ++respreads_;
    }
    Log(t, *action, names_[j]);
  }
  return Status::Ok();
}

Status Fleet::ServeRun::SetShed(
    Time t, const std::vector<control::ControlAction>& actions) {
  // Only the deadline knob moves; the run-level bounded-queue settings
  // stay as configured.
  for (const control::ControlAction* action : FirstPerModel(
           actions, n_, {control::ControlActionKind::kSetShed})) {
    serving::Engine& engine = *engines_[action->model];
    serving::AdmissionOptions admission = engine.admission();
    admission.deadline_s = action->deadline_s;
    const Status set = engine.SetAdmission(admission);
    if (!set.ok()) return set;
    ++shed_actions_;
    Log(t, *action, names_[action->model]);
  }
  return Status::Ok();
}

Status Fleet::ServeRun::Replan(std::size_t j, double budget) {
  std::optional<telemetry::ScopedSpan> span;
  OpenSpan(span, "fleet.replan");
  if (span.has_value()) {
    span->AddArg("model", names_[j]);
    span->AddArg("budget_per_hour", std::to_string(budget));
  }
  auto outcome =
      fleet_.PlanInShare(*backend_, indices_[j], budget, *plan_monitors_[j],
                         options_.search, /*n_minus_one=*/true, tel_);
  if (!outcome.ok()) return outcome.status();
  const Status reconfigured = engines_[j]->Reconfigure(outcome->config);
  if (!reconfigured.ok()) return reconfigured;
  // A model already moved to the live window was just replanned against
  // it: the window's current mean is the new planning-time reference, or
  // plan_mean_batch / drift would keep describing a replaced config.
  if (!live_monitors_.empty() && plan_monitors_[j] == &live_monitors_[j]) {
    live_monitors_[j].MarkPlanningReference();
  }
  return Status::Ok();
}

void Fleet::ServeRun::Record(Time t, unsigned kinds) {
  if (tel_ == nullptr) return;
  for (std::size_t j = 0; j < n_; ++j) {
    tel_->metrics().Set(tel_->sim_pending_events(), j,
                        static_cast<double>(clocks_[j]->PendingEvents()));
  }
  tel_->metrics().Add(tel_->barriers(), tel_->fleet_shard());
  sink_.AtBarrier(t, kinds);
}

FleetServeResult Fleet::ServeRun::Finish() {
  // Loans still open at the horizon are repaid — the run is over and the
  // headroom returns to its donors — so borrowed == repaid holds exactly
  // and final_shares_per_hour reports the unborrowed split.
  ledger_.RepayAll(shares_);
  FleetServeResult result;
  result.duration_s = options_.duration_s;
  result.telemetry_samples = sink_.TakeSamples();
  result.telemetry_samples_dropped = sink_.dropped_samples();
  result.reallocations = reallocations_;
  result.monitor_resets = monitor_resets_;
  result.respreads = respreads_;
  result.failovers = failovers_;
  result.shed_actions = shed_actions_;
  result.borrows = ledger_.borrows();
  result.paybacks = ledger_.paybacks();
  std::tie(result.budget_borrowed_per_hour, result.budget_repaid_per_hour) =
      ledger_.Totals();
  result.control_log = std::move(control_log_);
  // Ledger-drained kills interleave with injector events out of order
  // (they fire on shard clocks between barriers); one stable sort
  // restores time order deterministically.
  std::stable_sort(chaos_log_.begin(), chaos_log_.end(),
                   [](const FleetChaosEvent& a, const FleetChaosEvent& b) {
                     return a.time < b.time;
                   });
  result.chaos_log = std::move(chaos_log_);
  result.final_shares_per_hour = std::move(shares_);
  const cloud::Catalog& catalog = fleet_.catalog_;
  for (std::size_t j = 0; j < n_; ++j) {
    const serving::Engine& engine = *engines_[j];
    FleetModelServe serve;
    serve.model = names_[j];
    serve.totals = engine.Totals();
    serve.windows = std::move(windows_[j]);
    serve.qps = static_cast<double>(serve.totals.served) / options_.duration_s;
    serve.instances_lost = engine.InstancesLost();
    serve.preemption_notices = engine.PreemptionNotices();
    // Billed spend at on-demand prices from the engine's census; the
    // injector's spot market (when it quotes one for this model) then
    // applies its discount, integrated over the run for a time-varying
    // curve — the "effective cost" a preemptible fleet actually pays.
    const std::vector<double> billed = engine.BilledSecondsPerType();
    double ondemand_usd = 0.0;
    for (cloud::TypeId type = 0; type < catalog.size(); ++type) {
      ondemand_usd += billed[type] * catalog[type].price_per_hour / 3600.0;
    }
    serve.ondemand_cost_usd = ondemand_usd;
    const cloud::SpotMarket* market =
        injector_ != nullptr ? injector_->Market(j) : nullptr;
    serve.effective_cost_usd =
        market != nullptr
            ? cloud::SpotCost(*market, ondemand_usd, options_.duration_s)
            : ondemand_usd;
    result.total_qps += serve.qps;
    result.total_weighted_qps +=
        fleet_.model_options_[indices_[j]].arrival_scale * serve.qps;
    result.instances_lost += serve.instances_lost;
    result.preemption_notices += serve.preemption_notices;
    result.ondemand_cost_usd += serve.ondemand_cost_usd;
    result.effective_cost_usd += serve.effective_cost_usd;
    result.models.push_back(std::move(serve));
  }
  result.effective_cost_per_hour =
      result.effective_cost_usd * 3600.0 / options_.duration_s;
  return result;
}

StatusOr<FleetServeResult> Fleet::ServeAll(const FleetPlan& plan,
                                           FleetServeOptions options) const {
  if (options.duration_s <= 0.0 || options.base_rate_qps <= 0.0 ||
      options.window_s <= 0.0) {
    return Status::InvalidArgument(
        "ServeAll needs positive duration_s, base_rate_qps and window_s");
  }
  if (options.admission.max_queue_s < 0.0 ||
      options.admission.deadline_s < 0.0) {
    return Status::InvalidArgument(
        "FleetServeOptions::admission: max_queue_s and deadline_s must "
        "be >= 0");
  }
  auto indices = Resolve(plan);
  if (!indices.ok()) return indices.status();
  ServeRun run(*this, plan, *std::move(indices), std::move(options));
  const Status built = run.Build();
  if (!built.ok()) return built;
  // Faults armed at t <= 0 (e.g. a NET_DEGRADE window opening at the
  // start) land before the first arrival fires.
  run.DrainChaos(0.0);
  for (const auto& [t, kinds] : run.barriers()) {
    run.Advance(t);
    const bool window_closed = (kinds & kWindowBarrier) != 0;
    // A coinciding window and decision boundary snapshots first, so the
    // controller sees the freshly closed window; chaos lands before the
    // controller looks, so a chaos-aware controller reacts to a loss
    // with zero barrier lag.
    if (window_closed) run.SnapshotWindows(t);
    run.DrainChaos(t);
    const Status controlled = run.Control(t, window_closed);
    if (!controlled.ok()) return controlled;
    run.Record(t, kinds);
  }
  return run.Finish();
}

StatusOr<Runtime> Fleet::Deploy(const std::string& model,
                                const cloud::Config& config) const {
  const auto i = IndexOf(model);
  if (!i.ok()) return i.status();
  return sessions_[*i].Deploy(config);
}

StatusOr<FleetMeasurement> Fleet::MeasureAll(
    const FleetPlan& plan, const workload::BatchDistribution& mix,
    serving::EvalOptions eval_options) const {
  auto indices = Resolve(plan);
  if (!indices.ok()) return indices.status();

  // Measurements of independent models share nothing; run them in
  // parallel, each under the model's own trace when one is set.
  std::vector<serving::EvalResult> results(plan.models.size());
  ParallelFor(plan.models.size(), options_.planning_threads,
              [&](std::size_t j) {
                const FleetModelPlan& model_plan = plan.models[j];
                const std::size_t i = (*indices)[j];
                serving::EvalOptions per_model = eval_options;
                if (model_plan.outcome.expected_qps > 0.0) {
                  per_model.rate_guess = 0.5 * model_plan.outcome.expected_qps;
                }
                results[j] = sessions_[i].MeasureThroughput(
                    model_plan.outcome.config, MixFor(i, mix), per_model);
              });

  FleetMeasurement measurement;
  for (std::size_t j = 0; j < plan.models.size(); ++j) {
    FleetModelMeasurement m;
    m.model = plan.models[j].model;
    m.result = results[j];
    measurement.total_qps += m.result.qps;
    measurement.total_weighted_qps +=
        model_options_[(*indices)[j]].arrival_scale * m.result.qps;
    measurement.models.push_back(std::move(m));
  }
  return measurement;
}

}  // namespace kairos::core
