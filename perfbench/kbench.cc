// The repository benchmark's binary. It drives the Kairos library
// only through its public API (Fleet::Create, ObserveMixAll, PlanAll,
// ServeAll, plus the registries and evaluators those calls are built
// from), times the calls from outside, checks their outputs, and prints
// one result line:
//
//   KBENCH_RESULT {"correct": ..., "attempted": ..., "failed": ...,
//                  "failures": [...], "metrics": {name: {value, unit}}}
//
// Untraced mode (--trace 0) measures the end-to-end metrics. Traced mode
// (--trace 1) replays the same calls with timers and counters wrapped
// around public seams (a timed planner probe / evaluator / policy, the
// window_probe hook, the telemetry plane) and reports per-layer metrics.
// Every traced replay must reproduce the untraced outputs exactly, or
// the run fails. See README.md for the workloads and the metric map.
//
//   kairos_perfbench --workload plan|serve|serve-chaos|stream --seed N
//                    --seconds S --trace 0|1 --workdir DIR
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cloud/config_space.h"
#include "common/parallel.h"
#include "core/allocator.h"
#include "core/fleet.h"
#include "core/planner_backend.h"
#include "policy/registry.h"
#include "serving/throughput_eval.h"
#include "telemetry/telemetry.h"
#include "workload/batch_dist.h"
#include "workload/trace_io.h"

#ifndef KBENCH_BUILD_TYPE
#define KBENCH_BUILD_TYPE "unknown"
#endif

// ---------------------------------------------------------------------------
// Process-wide operator-new counter: the traced run's steady-state
// allocation audit snapshots it at every window barrier. It counts only
// while enabled, so timed calls elsewhere never share its cache line.
// ---------------------------------------------------------------------------
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_heap_allocs{0};

void* CountedAlloc(std::size_t n, std::size_t align) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (n == 0) n = 1;
  if (align <= alignof(std::max_align_t)) return std::malloc(n);
  void* p = nullptr;
  if (posix_memalign(&p, align, n) != 0) return nullptr;
  return p;
}
}  // namespace

void* operator new(std::size_t n) {
  void* p = CountedAlloc(n, 0);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  void* p = CountedAlloc(n, static_cast<std::size_t>(al));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n, 0);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n, 0);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace kbench {
namespace {

using namespace kairos;
using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The host-speed reference: a fixed pass of sorts over pseudo-random
/// keys, run before and after every timed call on as many threads as the
/// call keeps busy (ReferenceLanes). On a shared host, co-tenants slow
/// branchy, cache-heavy code like the library's by a third or more for
/// tens of seconds at a time, and the guest scheduler sometimes stacks a
/// call's threads on one vCPU. The reference slows with both, so a call's
/// median wall over the reference's median wall in the same run
/// (call_wall_ref) moves far less between runs than either wall. It is the benchmark's own code: no
/// change to the library moves it. Its buffers stay allocated for the
/// run (0.5 MB per thread, part of peak_rss_mb).
class HostReference {
 public:
  explicit HostReference(std::size_t threads) : lanes_(threads) {
    std::uint32_t x = 2463534242u;
    for (Lane& lane : lanes_) {
      lane.keys.resize(kKeys);
      lane.work.resize(kKeys);
      for (std::uint32_t& key : lane.keys) {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        key = x;
      }
    }
    Pass();  // warm-up: the first pass of a process runs slow
  }

  /// Wall seconds of one pass, every lane at once. Like the library's
  /// ParallelFor and ServeAll pools, each pass starts its own threads, so
  /// it meets the same thread placement a call does.
  double Pass() {
    const auto t0 = Clock::now();
    std::vector<std::thread> workers;
    for (std::size_t i = 1; i < lanes_.size(); ++i) {
      workers.emplace_back([this, i] { Sort(lanes_[i]); });
    }
    Sort(lanes_[0]);
    for (std::thread& worker : workers) worker.join();
    return Since(t0);
  }

 private:
  static constexpr std::size_t kKeys = std::size_t{1} << 16;
  static constexpr int kSorts = 24;  ///< about 0.12 s per pass

  struct Lane {
    std::vector<std::uint32_t> keys;
    std::vector<std::uint32_t> work;
    std::uint64_t sink = 0;  ///< keeps the sorts observable
  };

  static void Sort(Lane& lane) {
    for (int i = 0; i < kSorts; ++i) {
      std::copy(lane.keys.begin(), lane.keys.end(), lane.work.begin());
      std::sort(lane.work.begin(), lane.work.end());
      lane.sink += lane.work[kKeys / 2 + static_cast<std::size_t>(i)];
    }
  }

  std::vector<Lane> lanes_;
};

/// Reference lanes: as many as the workload's timed call keeps busy.
/// serve advances 8 shards on nproc threads. PlanAll keeps about one CPU
/// busy (common.parallel.plan_utilization is about 0.26: the allocation
/// step is serial), serve-chaos spends most of its wall in the serial
/// barrier step (replans), and stream runs on one thread. A multi-lane
/// pass beside a mostly serial call would measure thread placement the
/// call barely sees: in a plan process the scheduler sometimes stacks
/// all four lanes on one vCPU for the whole run.
std::size_t ReferenceLanes(const std::string& workload) {
  return workload == "serve"
             ? std::max(1u, std::thread::hardware_concurrency())
             : 1;
}

/// Returns freed heap to the system before each timed call, so every
/// call's peak RSS starts from the same resident set. Otherwise it starts
/// from whatever the allocator kept of earlier repetitions, which grows
/// with the repetition count (plan's lifetime peak: 46 MB after one
/// PlanAll, 86-126 MB after ten).
void ReleaseFreeHeap() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

/// Fixes glibc's mmap threshold at its initial 128 KB. By default the
/// threshold rises to the size of each mmapped block freed, so whether a
/// later large block comes from an arena (and stays resident) or from
/// mmap (and is returned on free) depends on the order in which threads
/// freed earlier blocks: plan's peak RSS then settled near 50 MB in some
/// runs and near 65 MB in others.
void FixMmapThreshold() {
#ifdef __GLIBC__
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
}

/// A failed public call or a failed correctness check; ends the run.
struct Failure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

template <typename T>
T Must(StatusOr<T> value, const std::string& what) {
  if (!value.ok()) throw Failure(what + ": " + value.status().ToString());
  return *std::move(value);
}

void Require(bool ok, const std::string& what) {
  if (!ok) throw Failure(what);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, p in (0, 100].
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// Peak resident set since the last ResetPeakRss (or since execve), MB.
/// Read from VmHWM: getrusage's ru_maxrss cannot be reset and keeps the
/// high-water mark of the forked parent (a Python interpreter when run.py
/// starts us).
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  throw Failure("cannot read VmHWM from /proc/self/status");
}

/// Resets this process's peak resident set (VmHWM) to its current RSS.
void ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  if (!clear) throw Failure("cannot reset VmHWM through /proc/self/clear_refs");
}

/// FNV-1a over the bits of every value folded in: two results fingerprint
/// equal only when they are identical bit for bit.
struct Fingerprint {
  std::uint64_t hash = 1469598103934665603ull;
  void Add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (8 * i)) & 0xffu;
      hash *= 1099511628211ull;
    }
  }
  void Add(double v) { Add(std::bit_cast<std::uint64_t>(v)); }
  void Add(const std::string& s) {
    for (const char c : s) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 1099511628211ull;
    }
    Add(s.size());
  }
};

std::uint64_t PlanFingerprint(const core::FleetPlan& plan) {
  Fingerprint f;
  for (const core::FleetModelPlan& m : plan.models) {
    f.Add(m.model);
    f.Add(m.budget_per_hour);
    f.Add(m.qos_ms);
    f.Add(m.outcome.config.ToString());
    f.Add(m.outcome.expected_qps);
    f.Add(m.outcome.evaluations);
    f.Add(m.cost_per_hour);
  }
  f.Add(plan.total_cost_per_hour);
  return f.hash;
}

/// Every deterministic output of a co-simulation; telemetry samples are
/// left out on purpose (they exist only in the traced run).
std::uint64_t ServeFingerprint(const core::FleetServeResult& r) {
  Fingerprint f;
  for (const core::FleetModelServe& m : r.models) {
    f.Add(m.model);
    f.Add(m.totals.offered);
    f.Add(m.totals.served);
    f.Add(m.totals.violations);
    f.Add(m.totals.rejected);
    f.Add(m.totals.shed);
    f.Add(m.totals.mean_ms);
    f.Add(m.qps);
    f.Add(m.instances_lost);
    f.Add(m.preemption_notices);
    f.Add(m.ondemand_cost_usd);
    f.Add(m.effective_cost_usd);
    for (const serving::WindowedMetrics& w : m.windows) {
      f.Add(w.offered);
      f.Add(w.served);
      f.Add(w.violations);
      f.Add(w.rejected);
      f.Add(w.shed);
      f.Add(w.p99_ms);
      f.Add(w.queue_depth_max);
    }
  }
  f.Add(r.reallocations);
  f.Add(r.monitor_resets);
  f.Add(r.respreads);
  f.Add(r.failovers);
  f.Add(r.shed_actions);
  f.Add(r.borrows);
  f.Add(r.paybacks);
  f.Add(r.budget_borrowed_per_hour);
  f.Add(r.budget_repaid_per_hour);
  for (const core::FleetControlEvent& e : r.control_log) {
    f.Add(e.time);
    f.Add(static_cast<std::uint64_t>(e.kind));
    f.Add(e.model);
  }
  for (const core::FleetChaosEvent& e : r.chaos_log) {
    f.Add(e.time);
    f.Add(static_cast<std::uint64_t>(e.kind));
    f.Add(e.model);
  }
  for (const double share : r.final_shares_per_hour) f.Add(share);
  f.Add(r.effective_cost_per_hour);
  return f.hash;
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

struct Result {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void PrintResult(const Result& r) {
  std::ostringstream out;
  out.precision(17);
  out << "KBENCH_RESULT {\"correct\": "
      << (r.failures.empty() ? "true" : "false")
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"build_type\": " << JsonString(KBENCH_BUILD_TYPE)
      << ", \"failures\": [";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    out << (i > 0 ? ", " : "") << JsonString(r.failures[i]);
  }
  out << "], \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const double v = r.metrics[i].second.first;
    out << (i > 0 ? ", " : "") << JsonString(r.metrics[i].first)
        << ": {\"value\": " << (std::isfinite(v) ? v : 0.0)
        << ", \"unit\": " << JsonString(r.metrics[i].second.second) << "}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".";
};

const cloud::Catalog& PaperPool() {
  static const cloud::Catalog catalog = cloud::Catalog::PaperPool();
  return catalog;
}

/// Everything a workload builds before its timed call.
struct Setup {
  std::vector<core::FleetModelOptions> models;
  std::unique_ptr<core::Fleet> fleet;
  /// The plan served by the serve workloads (PlanAll precedes serving and
  /// is part of set-up there); empty for `plan`.
  std::optional<core::FleetPlan> plan;
  core::FleetServeOptions serve;
  std::string csv_path;          ///< stream only
  std::size_t stream_rows = 0;   ///< stream only: generated CSV rows
  double stream_rate_qps = 0.0;  ///< stream only
};

/// The monitors' warm-up stream: a stratified sample of the production
/// batch-size mix — one draw per quantile stratum, jittered inside its
/// stratum and shuffled by the seed — replayed in order, ignoring the
/// session's RNG. Warming from the production mix itself (i.i.d. draws
/// seeded by FleetOptions::seed) flips the MARGINAL split between seeds:
/// PlanAll then takes either ~1 s or ~2.5 s and the fig18 fleet plans
/// either ~10k or ~23k queries/s, so no seed-to-seed comparison would
/// hold. Stratifying keeps every seed's monitor at the same mix.
class StratifiedMix final : public workload::BatchDistribution {
 public:
  StratifiedMix(std::size_t n, std::uint64_t seed) {
    const auto production = workload::LogNormalBatches::Production();
    Rng rng(seed);
    int b = 1;
    for (std::size_t i = 0; i < n; ++i) {
      const double u = (static_cast<double>(i) + rng.Uniform()) /
                       static_cast<double>(n);
      while (production.Cdf(b) < u) ++b;  // Cdf reaches 1 at the cap
      samples_.push_back(b);
    }
    sorted_ = samples_;
    std::shuffle(samples_.begin(), samples_.end(), rng.engine());
  }
  int Sample(Rng&) const override {
    const int b = samples_[next_];
    next_ = (next_ + 1) % samples_.size();
    return b;
  }
  double Cdf(int b) const override {
    return static_cast<double>(
               std::upper_bound(sorted_.begin(), sorted_.end(), b) -
               sorted_.begin()) /
           static_cast<double>(sorted_.size());
  }
  std::string Name() const override { return "stratified(production)"; }

 private:
  std::vector<int> samples_;
  std::vector<int> sorted_;
  mutable std::size_t next_ = 0;  ///< replay cursor
};

std::unique_ptr<core::Fleet> MakeFleet(
    const std::vector<core::FleetModelOptions>& models,
    const core::FleetOptions& options) {
  auto fleet = std::make_unique<core::Fleet>(
      Must(core::Fleet::Create(PaperPool(), models, options), "Fleet::Create"));
  // Every model's monitor window holds exactly one pass of the stream.
  fleet->ObserveMixAll(StratifiedMix(core::FleetModelOptions{}.monitor_warmup,
                                     options.seed));
  return fleet;
}

core::FleetModelOptions Model(std::string model, std::string name = "",
                              double arrival_scale = 1.0) {
  core::FleetModelOptions options;
  options.model = std::move(model);
  options.name = std::move(name);
  options.arrival_scale = arrival_scale;
  return options;
}

/// The perf_suite serving fleet: the five Table-3 models plus three
/// independent aliased shards.
std::vector<core::FleetModelOptions> EightShards() {
  return {Model("NCF"),
          Model("RM2"),
          Model("WND"),
          Model("MT-WND"),
          Model("DIEN"),
          Model("NCF", "NCF-B"),
          Model("WND", "WND-B"),
          Model("RM2", "RM2-B")};
}

// Workload sizes. Each timed call is a few seconds of wall on a 4-vCPU
// host, so a run of --seconds 10 repeats it a handful of times.
constexpr double kPlanBudget = 12.0;        ///< plan: $/hr, KAIROS+ MARGINAL
constexpr double kServeBudget = 24.0;       ///< serve: $/hr, STATIC
constexpr double kServeLoad = 0.7;          ///< serve: share of expected_qps
constexpr double kServeDuration = 50.0;     ///< serve: simulated seconds
constexpr double kChaosBudget = 8.0;        ///< serve-chaos: $/hr, MARGINAL
constexpr double kChaosDuration = 1200.0;   ///< serve-chaos: simulated s
constexpr double kStreamOverload = 2.0;     ///< stream: x planned capacity
constexpr std::size_t kStreamRows = 600000; ///< stream: CSV rows

/// Per process, so concurrent runs never share (or delete) one input.
std::string StreamCsvPath(const Args& args) {
  return args.workdir + "/stream_" + std::to_string(args.seed) + "_" +
         std::to_string(getpid()) + ".csv";
}

Setup MakeSetup(const Args& args) {
  Setup s;
  core::FleetOptions options;
  options.seed = args.seed;
  if (args.workload == "plan") {
    options.budget_per_hour = kPlanBudget;
    options.planner = "KAIROS+";
    options.allocator = "MARGINAL";
    s.models = {Model("NCF"),
                Model("RM2"),
                Model("WND"),
                Model("MT-WND"),
                Model("DIEN")};
    s.fleet = MakeFleet(s.models, options);
  } else if (args.workload == "serve") {
    // Size each shard's offered rate from a first plan, then build the
    // served fleet with those arrival scales. STATIC splits by weight
    // only, so the served fleet's plan must equal the sizing plan.
    options.budget_per_hour = kServeBudget;
    s.models = EightShards();
    const auto sizing = Must(MakeFleet(s.models, options)->PlanAll(),
                             "PlanAll (sizing)");
    constexpr double kBaseRate = 100.0;
    for (std::size_t i = 0; i < s.models.size(); ++i) {
      s.models[i].arrival_scale =
          kServeLoad * sizing.models[i].outcome.expected_qps / kBaseRate;
    }
    s.fleet = MakeFleet(s.models, options);
    s.plan = Must(s.fleet->PlanAll(), "PlanAll");
    Require(PlanFingerprint(*s.plan) == PlanFingerprint(sizing),
            "serve: the served fleet's STATIC plan differs from the sizing "
            "plan");
    s.serve.duration_s = kServeDuration;
    s.serve.base_rate_qps = kBaseRate;
    s.serve.window_s = kServeDuration / 20.0;
  } else if (args.workload == "serve-chaos") {
    // The fig18 fleet under COMPOSITE(QOS+FAILOVER) and a seeded spot
    // storm, plus one mid-run RM2 load spike.
    options.budget_per_hour = kChaosBudget;
    options.allocator = "MARGINAL";
    s.models = {Model("RM2"),
                Model("WND"),
                Model("NCF", "", 2.0)};
    s.fleet = MakeFleet(s.models, options);
    s.plan = Must(s.fleet->PlanAll(), "PlanAll");
    s.serve.duration_s = kChaosDuration;
    s.serve.base_rate_qps = 30.0;
    s.serve.window_s = 6.0;
    s.serve.launch_lag_s = 1.0;
    s.serve.controller = "COMPOSITE";
    s.serve.controller_knobs = {{"failover", 1.0},
                                {"p99_scale", 1.1},
                                {"backlog", 0.0},
                                {"drift", 0.0},
                                {"borrow_fraction", 0.4},
                                {"cooldown_windows", 2.0}};
    s.serve.chaos = "SPOT_PREEMPTION";
    s.serve.chaos_knobs = {{"rate_per_hour", 720.0},
                           {"notice_s", 1.5},
                           {"discount", 0.35}};
    s.serve.shifts = {{0.4 * kChaosDuration, "RM2", 3.0},
                      {0.6 * kChaosDuration, "RM2", 1.0}};
  } else if (args.workload == "stream") {
    // One NCF shard fed from a generated CSV through the bounded-memory
    // STREAM source, overloaded so the admission and shed paths run.
    options.budget_per_hour = 1.0;
    s.csv_path = StreamCsvPath(args);
    core::FleetModelOptions model;
    model.model = "NCF";
    model.trace = "STREAM";
    model.trace_path = s.csv_path;
    s.models = {model};
    s.fleet = MakeFleet(s.models, options);
    s.plan = Must(s.fleet->PlanAll(), "PlanAll");
    s.stream_rate_qps =
        kStreamOverload * s.plan->models[0].outcome.expected_qps;
    Require(s.stream_rate_qps > 0.0, "stream: plan has no expected_qps");
    s.stream_rows = kStreamRows;
    s.serve.duration_s =
        1.05 * static_cast<double>(s.stream_rows) / s.stream_rate_qps;
    s.serve.window_s = s.serve.duration_s / 25.0;
    s.serve.base_rate_qps = s.stream_rate_qps;  // unused by STREAM
    s.serve.keep_latencies = false;
    s.serve.admission.deadline_s = 3.0 * s.plan->models[0].qos_ms / 1000.0;
    s.serve.admission.max_queue = 100000;
    s.serve.serve_threads = 1;
  } else {
    throw Failure("unknown workload \"" + args.workload +
                  "\"; workloads: plan, serve, serve-chaos, stream");
  }
  return s;
}

/// Input generation for stream (not timed): Poisson arrivals at the
/// overload rate, batch sizes from the production mix, both seeded.
void WriteStreamCsv(const Setup& s, std::uint64_t seed) {
  std::FILE* f = std::fopen(s.csv_path.c_str(), "w");
  Require(f != nullptr, "cannot write " + s.csv_path);
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 17);
  const auto mix = workload::LogNormalBatches::Production();
  std::fputs("id,arrival_s,batch\n", f);
  double t = 0.0;
  for (std::size_t i = 0; i < s.stream_rows; ++i) {
    t += rng.Exponential(s.stream_rate_qps);
    std::fprintf(f, "%zu,%.9f,%d\n", i + 1, t, mix.Sample(rng));
  }
  Require(std::fclose(f) == 0, "cannot write " + s.csv_path);
}

// ---------------------------------------------------------------------------
// Correctness checks
// ---------------------------------------------------------------------------

double MinBasePrice() {
  double price = std::numeric_limits<double>::infinity();
  for (cloud::TypeId t = 0; t < PaperPool().size(); ++t) {
    if (PaperPool()[t].is_base) {
      price = std::min(price, PaperPool()[t].price_per_hour);
    }
  }
  return price;
}

/// FleetPlan invariants 1-5 (core/fleet.h).
void CheckPlan(const Setup& s, const core::FleetPlan& plan) {
  constexpr double kTol = 1e-9;
  const auto& names = s.fleet->model_names();
  Require(plan.models.size() == names.size(), "plan: wrong model count");
  double sum = 0.0;
  for (std::size_t i = 0; i < plan.models.size(); ++i) {
    const core::FleetModelPlan& m = plan.models[i];
    const core::FleetModelOptions& o = s.models[i];
    const double floor = std::max(o.min_budget_per_hour, MinBasePrice());
    const double ceiling = o.max_budget_per_hour > 0.0
                               ? o.max_budget_per_hour
                               : std::numeric_limits<double>::infinity();
    Require(m.model == names[i], "plan invariant 5: model order changed");
    Require(m.budget_per_hour >= floor - kTol &&
                m.budget_per_hour <= ceiling + kTol,
            "plan invariant 1: " + m.model + " share outside [floor, ceiling]");
    Require(m.cost_per_hour <= m.budget_per_hour + kTol,
            "plan invariant 3: " + m.model + " config costs more than share");
    int base = 0;
    for (cloud::TypeId t = 0; t < m.outcome.config.NumTypes(); ++t) {
      if (PaperPool()[t].is_base) base += m.outcome.config.Count(t);
    }
    Require(base >= 1, "plan invariant 4: " + m.model + " has no base instance");
    sum += m.budget_per_hour;
  }
  Require(sum <= plan.budget_per_hour + kTol,
          "plan invariant 2: shares exceed the global budget");
}

/// Ledgers of one co-simulation.
void CheckServe(const Setup& s, const core::FleetServeResult& r) {
  for (const core::FleetModelServe& m : r.models) {
    Require(m.totals.served + m.totals.shed + m.totals.rejected <=
                m.totals.offered,
            "serve ledger: " + m.model + " served + shed + rejected > offered");
  }
  Require(r.budget_borrowed_per_hour == r.budget_repaid_per_hour,
          "serve ledger: borrowed budget != repaid budget");
  if (s.stream_rows > 0) {
    Require(r.models[0].totals.offered == s.stream_rows,
            "stream: offered " + std::to_string(r.models[0].totals.offered) +
                " != generated rows " + std::to_string(s.stream_rows));
  }
}

// ---------------------------------------------------------------------------
// Untraced run: the end-to-end metrics
// ---------------------------------------------------------------------------

/// Times set-ups. The untraced run samples a slice of set-ups before the
/// first timed call and after every timed call, so set-up samples see the
/// same host phases as the calls. setup_s is the mean over slices of each
/// slice's median: within a slice every set-up runs about equally fast,
/// but between slices the single-threaded set-up can sit on a vCPU that
/// is 1.5x slower (stream: 0.6 vs 0.85 ms), so the median of all samples
/// flips between the two modes from run to run.
class SetupSampler {
 public:
  explicit SetupSampler(const Args& args) : args_(args) {}

  /// Builds set-ups for `seconds` (at least one), checking each set-up
  /// plan against the first; keeps the first set-up for the timed calls.
  void Sample(double seconds) {
    const auto start = Clock::now();
    std::vector<double> walls;
    do {
      const auto t0 = Clock::now();
      Setup setup = MakeSetup(args_);
      walls.push_back(Since(t0));
      if (setup.plan.has_value()) {
        CheckPlan(setup, *setup.plan);
        Require(!first_.has_value() || PlanFingerprint(*setup.plan) ==
                                           PlanFingerprint(*first_->plan),
                "set-up PlanAll differs between repetitions of one seed");
      }
      if (!first_.has_value()) first_ = std::move(setup);
    } while (Since(start) < seconds);
    slices_.push_back(Median(walls));
  }
  Setup& first() { return *first_; }
  double setup_s() const {
    return std::accumulate(slices_.begin(), slices_.end(), 0.0) /
           static_cast<double>(slices_.size());
  }

 private:
  const Args& args_;
  std::optional<Setup> first_;
  std::vector<double> slices_;  ///< median set-up wall of each slice
};

/// Wall budget of one slice of set-ups.
constexpr double kSetupSlice = 0.1;
/// Every timed call runs at least this many times.
constexpr int kMinReps = 3;
/// serve-chaos: storm realizations one run rotates over, and the seed
/// offset between them.
constexpr std::uint64_t kChaosInputs = 8;
constexpr std::uint64_t kInputSeedStride = 1000003;

double PlannedQps(const core::FleetPlan& plan) {
  double total = 0.0;
  for (const core::FleetModelPlan& m : plan.models) {
    total += m.outcome.expected_qps;
  }
  return total;
}

void RunPlanUntraced(const Args& args, SetupSampler& setups, Result& out) {
  Setup& s = setups.first();
  std::vector<double> walls, refs, peaks;
  std::optional<core::FleetPlan> reference;
  HostReference host(ReferenceLanes(args.workload));
  const auto start = Clock::now();
  while (static_cast<int>(walls.size()) < kMinReps || Since(start) < args.seconds) {
    ++out.attempted;
    ReleaseFreeHeap();
    refs.push_back(host.Pass());
    ResetPeakRss();
    const auto t0 = Clock::now();
    auto plan = s.fleet->PlanAll();
    walls.push_back(Since(t0));
    peaks.push_back(PeakRssMb());
    refs.push_back(host.Pass());
    if (!plan.ok()) {
      ++out.failed;
      throw Failure("PlanAll: " + plan.status().ToString());
    }
    CheckPlan(s, *plan);
    if (!reference.has_value()) reference = *plan;
    Require(PlanFingerprint(*plan) == PlanFingerprint(*reference),
            "PlanAll differs between repetitions of one seed");
    setups.Sample(kSetupSlice);
  }
  out.Set("call_wall_ref", Median(walls) / Median(refs), "x");
  out.Set("peak_rss_mb", Median(peaks), "MB");
  out.Set("call_wall_s", Median(walls), "s");
  out.Set("host_ref_s", Median(refs), "s");
  out.Set("plan_wall_s", Median(walls), "s");
  out.Set("plan_wall_s.max", *std::max_element(walls.begin(), walls.end()),
          "s");
  out.Set("plan_wall_s.samples", static_cast<double>(walls.size()), "count");
  out.Set("planned_qps", PlannedQps(*reference), "queries/s");
  out.Set("failed_ratio",
          static_cast<double>(out.failed) / static_cast<double>(out.attempted),
          "ratio");
}

/// Deterministic outcome metrics of one co-simulation.
void SetServeOutcome(const Setup& s, const core::FleetServeResult& r,
                     Result& out) {
  std::size_t offered = 0, served = 0, good = 0, violation_windows = 0;
  for (std::size_t i = 0; i < r.models.size(); ++i) {
    const core::FleetModelServe& m = r.models[i];
    offered += m.totals.offered;
    served += m.totals.served;
    good += m.totals.served - m.totals.violations;
    for (const serving::WindowedMetrics& w : m.windows) {
      if (w.served > 0 && w.p99_ms > s.plan->models[i].qos_ms) {
        ++violation_windows;
      }
    }
  }
  out.Set("goodput_qps", static_cast<double>(good) / r.duration_s,
          "queries/s");
  out.Set("qos_violation_windows", static_cast<double>(violation_windows),
          "count");
  out.Set("effective_cost_per_hour", r.effective_cost_per_hour, "$/hr");
  out.Set("failed_ratio",
          static_cast<double>(offered - served) / static_cast<double>(offered),
          "ratio");
  out.Set("sim_queries_offered", static_cast<double>(offered), "count");
  out.Set("budget_borrowed_per_hour", r.budget_borrowed_per_hour, "$/hr");
}

std::size_t Offered(const core::FleetServeResult& r) {
  std::size_t offered = 0;
  for (const core::FleetModelServe& m : r.models) offered += m.totals.offered;
  return offered;
}

void RunServeUntraced(const Args& args, SetupSampler& setups, Result& out) {
  // How often serve-chaos replans depends on the storm its seed draws
  // (340-360 times per call at 1200 simulated s; 660-780 at 2400 s, which
  // moved the wall by up to 8% between seeds). Its calls rotate over
  // kChaosInputs storms derived from the seed, so each run's median spans
  // several. Input 0 is the seed's own, which the traced run replays.
  std::vector<Setup> extra;
  if (args.workload == "serve-chaos") {
    for (std::uint64_t k = 1; k < kChaosInputs; ++k) {
      Args input = args;
      input.seed = args.seed + k * kInputSeedStride;
      extra.push_back(MakeSetup(input));
      CheckPlan(extra.back(), *extra.back().plan);
    }
  }
  std::vector<Setup*> inputs = {&setups.first()};
  for (Setup& setup : extra) inputs.push_back(&setup);
  std::vector<std::optional<std::uint64_t>> prints(inputs.size());
  std::optional<core::FleetServeResult> reference;  // input 0's outcome

  std::vector<double> walls, rates, refs, peaks;
  HostReference host(ReferenceLanes(args.workload));
  // Every input runs at least twice, so each one's repetition is checked.
  const std::size_t min_calls =
      std::max<std::size_t>(kMinReps, 2 * inputs.size());
  const auto start = Clock::now();
  while (walls.size() < min_calls || Since(start) < args.seconds) {
    const std::size_t input = walls.size() % inputs.size();
    Setup& s = *inputs[input];
    ++out.attempted;
    ReleaseFreeHeap();
    refs.push_back(host.Pass());
    ResetPeakRss();
    const auto t0 = Clock::now();
    auto result = s.fleet->ServeAll(*s.plan, s.serve);
    const double wall = Since(t0);
    peaks.push_back(PeakRssMb());
    refs.push_back(host.Pass());
    if (!result.ok()) {
      ++out.failed;
      throw Failure("ServeAll: " + result.status().ToString());
    }
    CheckServe(s, *result);
    walls.push_back(wall);
    rates.push_back(static_cast<double>(Offered(*result)) / wall);
    const std::uint64_t print = ServeFingerprint(*result);
    if (!prints[input].has_value()) {
      prints[input] = print;
      if (input == 0) reference = *std::move(result);
    } else {
      Require(print == *prints[input],
              "ServeAll differs between repetitions of one seed");
    }
    setups.Sample(kSetupSlice);
  }
  const Setup& s = *inputs[0];
  out.Set("call_wall_ref", Median(walls) / Median(refs), "x");
  out.Set("peak_rss_mb", Median(peaks), "MB");
  out.Set("call_wall_s", Median(walls), "s");
  out.Set("host_ref_s", Median(refs), "s");
  out.Set("sim_queries_per_s", Median(rates), "queries/s");
  out.Set("serve_wall_s.samples", static_cast<double>(walls.size()), "count");
  out.Set("planned_qps", PlannedQps(*s.plan), "queries/s");
  SetServeOutcome(s, *reference, out);
}

// ---------------------------------------------------------------------------
// Traced run: the per-layer metrics
// ---------------------------------------------------------------------------

/// Per-layer samples of one traced repetition; the run reports the median
/// of each metric over its repetitions.
using LayerSamples = std::map<std::string, double>;

/// Log-bucketed latency histogram (16 sub-buckets per power of two, about
/// 4% resolution). Cells are relaxed atomics so a histogram stays safe if
/// several threads record into it; the traced plan keeps one per model so
/// planning threads never share its cache lines.
class NsHistogram {
 public:
  void Record(std::uint64_t ns) {
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_ns_.fetch_add(ns, std::memory_order_relaxed);
    cells_[Bucket(ns)].fetch_add(1, std::memory_order_relaxed);
  }
  void MergeFrom(const NsHistogram& other) {
    count_.fetch_add(other.count_.load(), std::memory_order_relaxed);
    sum_ns_.fetch_add(other.sum_ns_.load(), std::memory_order_relaxed);
    for (std::size_t b = 0; b < kCells; ++b) {
      cells_[b].fetch_add(other.cells_[b].load(), std::memory_order_relaxed);
    }
  }
  std::uint64_t count() const { return count_.load(); }
  double sum_s() const { return static_cast<double>(sum_ns_.load()) * 1e-9; }
  /// Nearest-rank percentile in µs (bucket midpoint).
  double PercentileUs(double p) const {
    const std::uint64_t n = count();
    if (n == 0) return 0.0;
    const auto rank = static_cast<std::uint64_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < kCells; ++b) {
      seen += cells_[b].load();
      if (seen >= std::max<std::uint64_t>(rank, 1)) {
        return 0.5 * (Lower(b) + Lower(b + 1)) * 1e-3;
      }
    }
    return Lower(kCells) * 1e-3;
  }

 private:
  static constexpr std::size_t kSub = 16;
  static constexpr std::size_t kCells = 64 * kSub;
  static std::size_t Bucket(std::uint64_t ns) {
    if (ns < kSub) return static_cast<std::size_t>(ns);
    const int exp = 63 - std::countl_zero(ns);  // ns in [2^exp, 2^(exp+1))
    const std::uint64_t sub = (ns >> (exp - 4)) & (kSub - 1);
    return std::min(kCells - 1,
                    static_cast<std::size_t>(exp - 3) * kSub + sub);
  }
  static double Lower(std::size_t b) {
    if (b < kSub) return static_cast<double>(b);
    const std::size_t exp = b / kSub + 3;
    return std::ldexp(1.0 + static_cast<double>(b % kSub) / kSub,
                      static_cast<int>(exp));
  }
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_ns_{0};
  std::atomic<std::uint64_t> cells_[kCells] = {};
};

std::uint64_t NanosSince(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

/// Timing decorator around a registry-built policy: every round's
/// Distribute() call lands in a histogram.
class TimedPolicy final : public policy::Policy {
 public:
  TimedPolicy(std::unique_ptr<policy::Policy> inner, NsHistogram* rounds)
      : inner_(std::move(inner)), rounds_(rounds) {}
  std::string Name() const override { return inner_->Name(); }
  void Distribute(const policy::RoundContext& ctx,
                  std::vector<policy::Assignment>& out) override {
    const auto start = Clock::now();
    inner_->Distribute(ctx, out);
    rounds_->Record(NanosSince(start));
  }
  bool EarlyBinding() const override { return inner_->EarlyBinding(); }
  void Reset() override { inner_->Reset(); }

 private:
  std::unique_ptr<policy::Policy> inner_;
  NsHistogram* rounds_;
};

/// Replays Fleet::PlanAll step by step through the registries it is built
/// from — AllocatorRegistry + PlannerBackend::Probe for the budget split,
/// PlannerBackend::Plan with the same evaluator PlanAll wires for each
/// model — with timers around every seam. The replay must reproduce
/// `reference` exactly (pure-observer check).
LayerSamples TracedPlan(const Setup& s, const core::FleetPlan& reference) {
  const core::FleetOptions& options = s.fleet->options();
  const auto backend = Must(
      core::PlannerRegistry::Global().Build(options.planner), "planner");
  const auto allocator = Must(
      core::AllocatorRegistry::Global().Build(options.allocator), "allocator");
  const auto& names = s.fleet->model_names();
  const std::size_t n = names.size();
  std::vector<const core::Kairos*> sessions;
  for (const std::string& name : names) {
    sessions.push_back(Must(s.fleet->Session(name), "Fleet::Session"));
  }

  // Budget split with a timed probe; probe points are recorded so the
  // standalone config-space enumeration can replay them afterwards.
  std::mutex probe_mu;
  std::vector<double> probe_budgets;  // guarded by probe_mu
  std::uint64_t probe_ns = 0;         // guarded by probe_mu
  core::AllocationProblem problem;
  problem.budget_per_hour = options.budget_per_hour;
  problem.step_per_hour = options.allocation_step_per_hour;
  problem.threads = options.planning_threads;
  for (std::size_t i = 0; i < n; ++i) {
    const core::FleetModelOptions& o = s.models[i];
    problem.models.push_back(core::AllocModel{
        names[i], o.weight, o.arrival_scale,
        std::max(o.min_budget_per_hour, MinBasePrice()),
        o.max_budget_per_hour > 0.0 ? o.max_budget_per_hour
                                    : std::numeric_limits<double>::infinity()});
  }
  problem.probe = [&](std::size_t i, double budget) -> StatusOr<double> {
    const auto start = Clock::now();
    core::PlannerContext ctx{&PaperPool(), &sessions[i]->truth(),
                             sessions[i]->qos_ms(), budget};
    core::PlanRequest request;
    request.monitor = &sessions[i]->monitor();
    auto outcome = backend->Probe(ctx, request);
    const std::uint64_t ns = NanosSince(start);
    const std::lock_guard<std::mutex> lock(probe_mu);
    probe_ns += ns;
    probe_budgets.push_back(budget);
    if (!outcome.ok()) return outcome.status();
    return outcome->expected_qps;
  };
  const auto alloc_start = Clock::now();
  const std::vector<double> shares =
      Must(allocator->Allocate(problem), "Allocate");
  const double alloc_s = Since(alloc_start);

  std::size_t configs = 0;
  const auto enum_start = Clock::now();
  for (const double budget : probe_budgets) {
    cloud::ConfigSpaceOptions space;
    space.budget_per_hour = budget;
    space.min_base_instances = 1;
    configs += cloud::EnumerateConfigs(PaperPool(), space).size();
  }
  const double enum_s = Since(enum_start);

  // Per-model planning, concurrently as PlanAll does, with a timed
  // evaluator wrapping serving::EvaluateConfig around a timed KAIROS
  // policy (the distributor Runtime::MeasureThroughput deploys).
  const auto kairos_factory = Must(
      policy::PolicyRegistry::Global().MakeFactory("KAIROS", {}), "KAIROS");
  std::vector<NsHistogram> rounds_of(n);
  /// Per-model evaluator counters; atomic because a batched search
  /// frontier (eval_threads > 1) calls one model's evaluator concurrently.
  struct EvalCounters {
    std::atomic<std::uint64_t> busy_ns{0};
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> trials{0};
  };
  std::vector<EvalCounters> evals_of(n);
  std::vector<double> plan_busy(n, 0.0);
  std::vector<std::optional<core::PlannerOutcome>> outcomes(n);
  std::vector<std::string> errors(n);
  const auto plan_start = Clock::now();
  ParallelFor(n, options.planning_threads, [&](std::size_t i) {
    const auto start = Clock::now();
    const core::Kairos& session = *sessions[i];
    core::PlannerContext ctx{&PaperPool(), &session.truth(),
                             session.qos_ms(), shares[i]};
    core::PlanRequest request;
    request.monitor = &session.monitor();
    if (backend->NeedsEvaluations()) {
      auto mix = session.monitor().Snapshot();
      if (!mix.ok()) {
        errors[i] = mix.status().ToString();
        return;
      }
      serving::PolicyFactory timed = [&kairos_factory, rounds = &rounds_of[i]] {
        return std::unique_ptr<policy::Policy>(
            std::make_unique<TimedPolicy>(kairos_factory(), rounds));
      };
      request.eval = [&, i, timed = std::move(timed),
                      mix = *std::move(mix)](const cloud::Config& config) {
        const auto eval_start = Clock::now();
        const serving::EvalResult r = serving::EvaluateConfig(
            PaperPool(), config, sessions[i]->truth(), sessions[i]->qos_ms(),
            timed, mix, serving::EvalOptions{});
        EvalCounters& c = evals_of[i];
        c.busy_ns.fetch_add(NanosSince(eval_start), std::memory_order_relaxed);
        c.calls.fetch_add(1, std::memory_order_relaxed);
        c.trials.fetch_add(static_cast<std::uint64_t>(r.trials),
                           std::memory_order_relaxed);
        return r.qps;
      };
    }
    auto outcome = backend->Plan(ctx, request);
    plan_busy[i] = Since(start);
    if (!outcome.ok()) {
      errors[i] = outcome.status().ToString();
    } else {
      outcomes[i] = *std::move(outcome);
    }
  });
  const double plan_wall = Since(plan_start);

  // Pure-observer check: the replay must be the program PlanAll ran.
  Require(reference.models.size() == n, "traced plan: model count");
  for (std::size_t i = 0; i < n; ++i) {
    Require(errors[i].empty(), "traced plan: " + names[i] + ": " + errors[i]);
    const core::FleetModelPlan& ref = reference.models[i];
    Require(shares[i] == ref.budget_per_hour &&
                outcomes[i]->config == ref.outcome.config &&
                outcomes[i]->evaluations == ref.outcome.evaluations &&
                outcomes[i]->expected_qps == ref.outcome.expected_qps,
            "traced plan is not a pure observer: " + names[i] +
                " differs from the untraced PlanAll");
  }

  NsHistogram rounds;
  for (const NsHistogram& h : rounds_of) rounds.MergeFrom(h);
  LayerSamples m;
  double busy = 0.0, evals = 0.0, calls = 0.0, ebusy = 0.0, ntrials = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    busy += plan_busy[i];
    ebusy += static_cast<double>(evals_of[i].busy_ns.load()) * 1e-9;
    evals += static_cast<double>(outcomes[i]->evaluations);
    calls += static_cast<double>(evals_of[i].calls.load());
    ntrials += static_cast<double>(evals_of[i].trials.load());
  }
  m["core.allocator.busy_s"] = alloc_s;
  m["ub.probe.calls"] = static_cast<double>(probe_budgets.size());
  m["ub.probe.busy_s"] = static_cast<double>(probe_ns) * 1e-9;
  m["cloud.config_space.configs"] = static_cast<double>(configs);
  m["cloud.config_space.enumerate_s"] = enum_s;
  m["search.plan.busy_s"] = busy;
  m["search.plan.self_s"] = busy - ebusy;
  m["search.evals"] = evals;
  m["search.eval_calls"] = calls;
  m["search.eval_useful_ratio"] = calls > 0.0 ? evals / calls : 0.0;
  m["serving.eval.busy_s"] = ebusy;
  m["serving.eval.trials"] = ntrials;
  m["serving.eval.trials_per_s"] = ebusy > 0.0 ? ntrials / ebusy : 0.0;
  m["policy.rounds"] = static_cast<double>(rounds.count());
  m["policy.busy_s"] = rounds.sum_s();
  m["policy.round_us.p50"] = rounds.PercentileUs(50.0);
  m["policy.round_us.p99"] = rounds.PercentileUs(99.0);
  const double workers =
      static_cast<double>(ParallelismFor(options.planning_threads, n));
  m["common.parallel.plan_utilization"] = busy / (workers * plan_wall);
  return m;
}

/// Total length of the union of [start, start + dur) intervals, µs.
double UnionUs(std::vector<std::pair<std::uint64_t, std::uint64_t>> spans) {
  std::sort(spans.begin(), spans.end());
  double total = 0.0;
  std::uint64_t cur_start = 0, cur_end = 0;
  bool open = false;
  for (const auto& [start, dur] : spans) {
    const std::uint64_t end = start + dur;
    if (open && start <= cur_end) {
      cur_end = std::max(cur_end, end);
      continue;
    }
    if (open) total += static_cast<double>(cur_end - cur_start);
    cur_start = start;
    cur_end = end;
    open = true;
  }
  if (open) total += static_cast<double>(cur_end - cur_start);
  return total;
}

/// One traced serve repetition: an untraced ServeAll carrying only the
/// window_probe hook (window wall intervals, the allocation audit), then
/// the same call with the telemetry plane attached. Both must reproduce
/// `reference_print`.
LayerSamples TracedServe(Setup& s, std::uint64_t reference_print) {
  LayerSamples m;
  const std::size_t n = s.plan->models.size();
  const std::size_t windows = static_cast<std::size_t>(
      std::ceil(s.serve.duration_s / s.serve.window_s)) + 4;

  // Untraced, probe only. Both vectors are reserved up front so the probe
  // itself never allocates inside the audited window range.
  std::vector<Clock::time_point> marks;
  std::vector<std::uint64_t> allocs;
  marks.reserve(windows);
  allocs.reserve(windows);
  core::FleetServeOptions serve = s.serve;
  serve.window_probe = [&marks, &allocs](std::size_t j,
                                         const serving::WindowedMetrics&) {
    if (j != 0) return;
    if (marks.size() < marks.capacity()) {
      marks.push_back(Clock::now());
      allocs.push_back(g_heap_allocs.load(std::memory_order_relaxed));
    }
  };
  g_count_allocs.store(true);
  const auto start = Clock::now();
  auto served = s.fleet->ServeAll(*s.plan, serve);
  const double plain_wall = Since(start);
  g_count_allocs.store(false);
  const auto plain = Must(std::move(served), "ServeAll");
  CheckServe(s, plain);
  Require(ServeFingerprint(plain) == reference_print,
          "ServeAll with window_probe differs from the untraced run");
  std::vector<double> window_us;
  Clock::time_point prev = start;
  for (const Clock::time_point t : marks) {
    window_us.push_back(
        std::chrono::duration<double, std::micro>(t - prev).count());
    prev = t;
  }
  m["core.fleet.windows"] = static_cast<double>(marks.size());
  m["core.fleet.window_wall_us.p50"] = Percentile(window_us, 50.0);
  m["core.fleet.window_wall_us.p99"] = Percentile(window_us, 99.0);
  m["serving.engine.steady_allocs"] =
      allocs.size() >= 4
          ? static_cast<double>(allocs.back() - allocs[allocs.size() / 2])
          : 0.0;

  // Traced: the telemetry plane with rings large enough to keep every
  // barrier and advance span of the run.
  std::vector<std::string> names;
  for (const core::FleetModelPlan& p : s.plan->models) names.push_back(p.model);
  telemetry::TelemetryOptions tel_options;
  tel_options.trace_events_per_shard = 4 * windows + 65536;
  auto tel = Must(telemetry::Telemetry::Create(names, tel_options),
                  "Telemetry::Create");
  serve = s.serve;
  serve.telemetry = tel.get();
  const auto tel_start = Clock::now();
  const auto traced = Must(s.fleet->ServeAll(*s.plan, serve), "ServeAll");
  const double tel_wall = Since(tel_start);
  Require(ServeFingerprint(traced) == reference_print,
          "traced ServeAll is not a pure observer: outputs differ from the "
          "untraced run");

  double advance_us = 0.0;
  for (const telemetry::MetricValue& v : tel->metrics().Snapshot().metrics) {
    if (v.name == "kairos_engine_advance_us") advance_us = v.sum;
  }
  std::vector<double> shard_us(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    for (const telemetry::TraceEvent& e : tel->tracer().ShardEvents(j)) {
      if (e.name == "engine.advance" || e.name == "engine.drain") {
        shard_us[j] += static_cast<double>(e.dur_us);
      }
    }
  }
  const double mean_shard =
      std::accumulate(shard_us.begin(), shard_us.end(), 0.0) /
      static_cast<double>(n);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> barrier_spans;
  double decide_us = 0.0, replans = 0.0;
  for (const telemetry::TraceEvent& e :
       tel->tracer().ShardEvents(tel->fleet_shard())) {
    if (e.phase != 'X') continue;
    if (e.name == "window.snapshot" || e.name == "control.decide" ||
        e.name == "fleet.realloc" || e.name == "fleet.replan") {
      barrier_spans.push_back({e.ts_us, e.dur_us});
    }
    if (e.name == "control.decide") decide_us += static_cast<double>(e.dur_us);
    if (e.name == "fleet.replan") replans += 1.0;
  }
  const double workers =
      static_cast<double>(ParallelismFor(s.serve.serve_threads, n));
  m["serving.engine.advance_busy_s"] = advance_us * 1e-6;
  m["serving.engine.shard_skew"] =
      mean_shard > 0.0
          ? *std::max_element(shard_us.begin(), shard_us.end()) / mean_shard
          : 0.0;
  m["core.fleet.barrier_s"] = UnionUs(barrier_spans) * 1e-6;
  m["common.parallel.serve_utilization"] =
      advance_us * 1e-6 / (workers * tel_wall);
  m["telemetry.spans_dropped"] =
      static_cast<double>(tel->tracer().TotalDropped());
  m["telemetry.overhead"] = tel_wall / plain_wall;
  m["control.actions"] = static_cast<double>(traced.control_log.size());
  m["control.decide_s"] = decide_us * 1e-6;
  m["core.fleet.reallocations"] = static_cast<double>(traced.reallocations);
  m["core.fleet.replans"] = replans;
  m["chaos.faults"] = static_cast<double>(traced.chaos_log.size());
  double shed = 0.0, rejected = 0.0, depth = 0.0;
  for (const core::FleetModelServe& model : traced.models) {
    shed += static_cast<double>(model.totals.shed);
    rejected += static_cast<double>(model.totals.rejected);
    for (const serving::WindowedMetrics& w : model.windows) {
      depth = std::max(depth, static_cast<double>(w.queue_depth_max));
    }
  }
  m["serving.engine.shed"] = shed;
  m["serving.engine.rejected"] = rejected;
  m["serving.engine.queue_depth_max"] = depth;
  return m;
}

/// A standalone StreamingTraceReader pass over the stream workload's CSV.
double TraceIoRowsPerSecond(const Setup& s) {
  const auto start = Clock::now();
  auto reader = Must(workload::StreamingTraceReader::Open(s.csv_path),
                     "StreamingTraceReader::Open");
  workload::Query q;
  std::size_t rows = 0;
  while (Must(reader.Next(&q), "StreamingTraceReader::Next")) ++rows;
  const double wall = Since(start);
  Require(rows == s.stream_rows, "trace_io: read " + std::to_string(rows) +
                                     " rows of " +
                                     std::to_string(s.stream_rows));
  return static_cast<double>(rows) / wall;
}

/// Per-layer metrics in report order, with units. Layers a workload does
/// not use read 0.
const std::vector<std::pair<std::string, std::string>>& LayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"core.allocator.busy_s", "s"},
      {"ub.probe.calls", "count"},
      {"ub.probe.busy_s", "s"},
      {"cloud.config_space.configs", "count"},
      {"cloud.config_space.enumerate_s", "s"},
      {"search.plan.busy_s", "s"},
      {"search.plan.self_s", "s"},
      {"search.evals", "count"},
      {"search.eval_calls", "count"},
      {"search.eval_useful_ratio", "ratio"},
      {"serving.eval.busy_s", "s"},
      {"serving.eval.trials", "count"},
      {"serving.eval.trials_per_s", "1/s"},
      {"policy.rounds", "count"},
      {"policy.busy_s", "s"},
      {"policy.round_us.p50", "us"},
      {"policy.round_us.p99", "us"},
      {"common.parallel.plan_utilization", "ratio"},
      {"core.fleet.windows", "count"},
      {"core.fleet.window_wall_us.p50", "us"},
      {"core.fleet.window_wall_us.p99", "us"},
      {"serving.engine.advance_busy_s", "s"},
      {"serving.engine.shard_skew", "ratio"},
      {"core.fleet.barrier_s", "s"},
      {"common.parallel.serve_utilization", "ratio"},
      {"telemetry.spans_dropped", "count"},
      {"control.actions", "count"},
      {"control.decide_s", "s"},
      {"core.fleet.reallocations", "count"},
      {"core.fleet.replans", "count"},
      {"chaos.faults", "count"},
      {"workload.trace_io.rows_per_s", "rows/s"},
      {"serving.engine.shed", "count"},
      {"serving.engine.rejected", "count"},
      {"serving.engine.queue_depth_max", "count"},
      {"serving.engine.steady_allocs", "count"},
      {"telemetry.overhead", "ratio"},
  };
  return kMetrics;
}

void RunTraced(const Args& args, Result& out) {
  Setup s = MakeSetup(args);
  if (s.stream_rows > 0) WriteStreamCsv(s, args.seed);
  std::vector<LayerSamples> reps;
  const auto start = Clock::now();
  if (!s.plan.has_value()) {
    // plan: one untraced PlanAll is the reference; traced replays fill
    // the rest of the run.
    ++out.attempted;
    const core::FleetPlan reference = Must(s.fleet->PlanAll(), "PlanAll");
    CheckPlan(s, reference);
    do {
      ++out.attempted;
      reps.push_back(TracedPlan(s, reference));
    } while (static_cast<int>(reps.size()) < 2 || Since(start) < args.seconds);
  } else {
    const LayerSamples plan_layers = TracedPlan(s, *s.plan);
    ++out.attempted;
    const auto reference =
        Must(s.fleet->ServeAll(*s.plan, s.serve), "ServeAll");
    CheckServe(s, reference);
    const std::uint64_t print = ServeFingerprint(reference);
    do {
      out.attempted += 2;
      LayerSamples m = TracedServe(s, print);
      m.insert(plan_layers.begin(), plan_layers.end());
      if (s.stream_rows > 0) {
        m["workload.trace_io.rows_per_s"] = TraceIoRowsPerSecond(s);
      }
      reps.push_back(std::move(m));
    } while (static_cast<int>(reps.size()) < 2 || Since(start) < args.seconds);
  }
  for (const auto& [name, unit] : LayerMetrics()) {
    std::vector<double> values;
    for (const LayerSamples& rep : reps) {
      const auto it = rep.find(name);
      values.push_back(it != rep.end() ? it->second : 0.0);
    }
    out.Set(name, Median(values), unit);
  }
  out.Set("traced.samples", static_cast<double>(reps.size()), "count");
}

void RunUntraced(const Args& args, Result& out) {
  SetupSampler setups(args);
  setups.Sample(kSetupSlice);
  if (setups.first().stream_rows > 0) WriteStreamCsv(setups.first(), args.seed);
  if (setups.first().plan.has_value()) {
    RunServeUntraced(args, setups, out);
  } else {
    RunPlanUntraced(args, setups, out);
  }
  out.Set("setup_s", setups.setup_s(), "s");
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--workdir") {
      args.workdir = value;
    } else {
      throw Failure("unknown argument " + key);
    }
  }
  return args;
}

int Main(int argc, char** argv) {
  FixMmapThreshold();
  Result out;
  std::string csv_path;
  try {
    const Args args = ParseArgs(argc, argv);
    if (args.workload == "stream") csv_path = StreamCsvPath(args);
    if (args.trace) {
      RunTraced(args, out);
    } else {
      RunUntraced(args, out);
    }
  } catch (const std::exception& e) {  // Failure, or anything the library threw
    out.failures.push_back(e.what());
    if (out.failed == 0) out.failed = 1;
    out.attempted = std::max<std::size_t>(out.attempted, 1);
  }
  if (!csv_path.empty()) std::remove(csv_path.c_str());
  PrintResult(out);
  return out.failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace kbench

int main(int argc, char** argv) { return kbench::Main(argc, argv); }
