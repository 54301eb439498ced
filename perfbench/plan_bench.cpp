/// \file plan_bench.cpp
/// LoC-MPS planning benchmark (see README.md in this directory).
///
/// One client in a closed loop: a request is one
/// `make_scheduler("loc-mps")->schedule()` call, or one `run_online()` call
/// on the online-replan workload, issued only after the previous one
/// returned. Every request is checked (Schedule::validate, modeled vs
/// simulated makespan, schedule digest repeated across repetitions).
///
///   locmps_perfbench --workload <name> --seed <n> --seconds <s>
///                    --trace <0|1> [--size full|tiny] [--git-sha <sha>]
///
/// --trace 0 prints the end-to-end metrics. --trace 1 interleaves every
/// request with a traced twin (MetricsRegistry attached, no EventSink, no
/// Profiler — either one sends LoC-MPS down its from-scratch path) and then
/// times calls into each layer from here, printing the per-layer metrics.
/// The last stdout line is one JSON object: correct, attempted, failed,
/// metrics.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/locmps.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"

namespace {

using namespace locmps;

constexpr double kMyrinetBps = 2e9 / 8.0;
constexpr double kRuntimeNoise = 0.3;
/// Set-ups per run; setup_s is their median.
constexpr std::size_t kSetups = 5;
/// Direct locbs() calls per plan; locbs.eval_s is the median of all calls.
constexpr std::size_t kEvalReps = 3;
/// Replan cap of the online-layer probe on workloads without online
/// requests (an uncapped run on large-dag replans 64 times at ~1 s each).
constexpr std::size_t kProbeReplans = 2;
/// Relative tolerance of "estimated makespan == simulated makespan", the
/// same one tests/test_loc_mps.cpp holds LoC-MPS to.
constexpr double kMakespanTol = 1e-6;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string git_sha = "unknown";
};

/// One planning problem. The planner sees only the graph and the cluster.
struct Request {
  std::string label;
  TaskGraph g;
  Cluster cluster;
  bool online = false;
  std::uint64_t noise_seed = 0;  ///< runtime-noise seed (online only)
  std::size_t max_replans = OnlineOptions{}.max_replans;
  double lower_bound = 0.0;      ///< max(critical path, area) bound
};

struct Workload {
  std::vector<Request> requests;
  SchedulerOptions options;  ///< defaults except plan_budget on large-dag
};

void add_request(Workload& wl, std::string label, TaskGraph g,
                 const Cluster& c, bool online, std::uint64_t noise_seed) {
  Request rq{std::move(label), std::move(g), c, online, noise_seed};
  rq.lower_bound = std::max(critical_path_lower_bound(rq.g, c.processors),
                            area_lower_bound(rq.g, c.processors));
  wl.requests.push_back(std::move(rq));
}

/// A paper-style synthetic DAG with exactly \p tasks tasks.
TaskGraph synthetic(std::size_t tasks, double ccr, Rng& rng) {
  SyntheticParams p;
  p.min_tasks = p.max_tasks = tasks;
  p.ccr = ccr;
  p.max_procs = 128;
  return make_synthetic_dag(p, rng);
}

std::string synthetic_label(std::size_t tasks, double ccr, std::size_t P) {
  std::ostringstream label;
  label << "synthetic/V=" << tasks << "/ccr=" << ccr << "/P=" << P;
  return label.str();
}

/// The paper's Section IV-A suite: degree-4 DAGs, three CCRs, Fast
/// Ethernet, at a few processor counts. Planning time depends mostly on |V|
/// and P, so every (|V|, P, CCR) cell of a fixed grid gets the same number
/// of DAGs and the seed draws only the DAGs: the request mix is the same
/// for every seed. The sizes stop at 20 tasks so that a run holds a few
/// hundred distinct DAGs; plan times vary with DAG structure by a factor
/// of about 2 within a cell, and the median over ~100 larger DAGs moved by
/// 15-20% from seed to seed.
Workload paper_synthetic(std::uint64_t seed, bool tiny) {
  Workload wl;
  const std::size_t max_tasks = tiny ? 10 : 20;
  const std::size_t per_cell = tiny ? 1 : 6;
  const std::vector<std::size_t> procs =
      tiny ? std::vector<std::size_t>{8} : std::vector<std::size_t>{16, 32, 64};
  Rng rng(seed);
  for (std::size_t k = 0; k < per_cell; ++k)
    for (std::size_t V = 10; V <= max_tasks; V += 2)
      for (const std::size_t P : procs)
        for (const double ccr : {0.1, 0.5, 1.0})
          add_request(wl, synthetic_label(V, ccr, P), synthetic(V, ccr, rng),
                      Cluster(P), false, 0);
  return wl;
}

/// Large synthetic DAGs at P=128 under a refinement budget: the
/// planning-time cliff, where each LoCBS evaluation dominates. Several
/// DAGs per run, because one DAG's plan time and quality depend on its
/// structure by tens of percent.
Workload large_dag(std::uint64_t seed, bool tiny) {
  Workload wl;
  wl.options.plan_budget = 16;
  const std::size_t V = tiny ? 64 : 2048;
  const std::size_t P = tiny ? 16 : 128;
  const std::size_t dags = tiny ? 1 : 4;
  Rng rng(seed);
  for (std::size_t k = 0; k < dags; ++k)
    add_request(wl, synthetic_label(V, 0.5, P), synthetic(V, 0.5, rng),
                Cluster(P), false, 0);
  return wl;
}

/// run_online with 30% runtime noise on the paper's application DAGs at
/// P=16 and P=64, each under many noise seeds, plus a few paper-size
/// synthetic DAGs at P=16. (Synthetic DAGs at P=64 replan for 0.1-0.7 s
/// each and made the run's total depend mostly on which DAGs a seed drew.)
Workload online_replan(std::uint64_t seed, bool tiny) {
  Workload wl;
  Rng rng(seed);
  const std::vector<std::size_t> procs =
      tiny ? std::vector<std::size_t>{8} : std::vector<std::size_t>{16, 64};
  const std::size_t noise_seeds = tiny ? 1 : 18;
  const std::size_t synthetic_dags = tiny ? 1 : 9;
  TCEParams tp;
  tp.occupied = tiny ? 16 : 48;
  tp.virt = tiny ? 64 : 192;
  StrassenParams sp;
  sp.n = tiny ? 1024 : 4096;
  const std::vector<std::pair<std::string, TaskGraph>> apps{
      {"ccsd-t1", make_ccsd_t1(tp)},
      {"ccsd-t2", make_ccsd_t2(tp)},
      {"strassen", make_strassen(sp)}};
  for (const std::size_t P : procs)
    for (const auto& [name, g] : apps)
      for (std::size_t k = 0; k < noise_seeds; ++k)
        add_request(wl, name + "/P=" + std::to_string(P), g,
                    Cluster(P, kMyrinetBps), true, rng.next());
  for (std::size_t k = 0; k < synthetic_dags; ++k)
    add_request(wl, synthetic_label(20, 0.5, procs.front()),
                synthetic(20, 0.5, rng), Cluster(procs.front()), true,
                rng.next());
  return wl;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool tiny) {
  if (name == "paper-synthetic") return paper_synthetic(seed, tiny);
  if (name == "large-dag") return large_dag(seed, tiny);
  if (name == "online-replan") return online_replan(seed, tiny);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

OnlineOptions online_options(const Request& rq, const SchedulerOptions& so) {
  OnlineOptions o;
  o.runtime_noise = kRuntimeNoise;
  o.seed = rq.noise_seed;
  o.max_replans = rq.max_replans;
  if (so.plan_budget > 0) o.planner.max_locbs_calls = so.plan_budget;
  return o;
}

/// FNV-1a over every placement's exact bits.
std::uint64_t digest(const Schedule& s) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  auto mix_double = [&mix](double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    mix(bits);
  };
  for (TaskId t = 0; t < s.num_tasks(); ++t) {
    const Placement& p = s.at(t);
    mix_double(p.busy_from);
    mix_double(p.start);
    mix_double(p.finish);
    mix(p.np());
    p.procs.for_each([&mix](ProcId q) { mix(q); });
  }
  return h;
}

/// The online executor realizes each task at et * noise factor, so its
/// executed schedule is validated against a copy of the graph whose
/// profiles carry the same factors.
std::string validate_executed(const Request& rq, const Schedule& executed) {
  const std::vector<double> f =
      make_noise_factors(rq.g.num_tasks(), kRuntimeNoise, rq.noise_seed);
  TaskGraph realized = rq.g;
  for (TaskId t = 0; t < realized.num_tasks(); ++t) {
    std::vector<double> times = rq.g.task(t).profile.table();
    for (double& x : times) x *= f[t];
    realized.task(t).profile = ExecutionProfile(std::move(times));
  }
  return executed.validate(realized, CommModel(rq.cluster));
}

/// One request's result. `error` is empty when every check passed.
struct Outcome {
  double seconds = 0.0;
  double makespan = 0.0;  ///< event-simulated
  std::uint64_t digest = 0;
  std::string error;
  SchedulerResult plan;  ///< plain requests only
  std::size_t replans = 0;
};

Outcome run_request(const Request& rq, const Scheduler& sched,
                    const SchedulerOptions& so, obs::ObsContext* obs) {
  Outcome out;
  const CommModel comm(rq.cluster);
  try {
    if (rq.online) {
      OnlineOptions o = online_options(rq, so);
      o.obs = obs;
      const Stopwatch sw;
      const OnlineResult r = run_online(rq.g, rq.cluster, o);
      out.seconds = sw.seconds();
      out.makespan = r.makespan;
      out.replans = r.replans;
      out.digest = digest(r.executed);
      out.error = validate_executed(rq, r.executed);
      return out;
    }
    const Stopwatch sw;
    out.plan = sched.schedule(rq.g, rq.cluster);
    out.seconds = sw.seconds();
  } catch (const std::exception& e) {
    out.error = std::string("threw: ") + e.what();
    return out;
  }
  out.digest = digest(out.plan.schedule);
  out.error = out.plan.schedule.validate(rq.g, comm);
  out.makespan =
      simulate_execution(rq.g, out.plan.schedule, comm).makespan;
  const double est = out.plan.estimated_makespan;
  if (out.error.empty() &&
      !(std::abs(out.makespan - est) <= kMakespanTol * est)) {
    std::ostringstream err;
    err.precision(17);
    err << "simulated makespan " << out.makespan
        << " != estimated makespan " << est;
    out.error = err.str();
  }
  return out;
}

/// Counts requests and failures, and checks each request's schedule digest
/// against its first repetition.
class Checker {
 public:
  /// \p i identifies the request across repetitions.
  void record(const Request& rq, std::size_t i, const Outcome& o) {
    ++attempted_;
    if (i >= seen_.size()) {
      first_.resize(i + 1, 0);
      seen_.resize(i + 1, 0);
    }
    std::string error = o.error;
    if (error.empty()) {
      if (!seen_[i]) {
        first_[i] = o.digest;
        seen_[i] = 1;
      } else if (o.digest != first_[i]) {
        error = "schedule digest differs from the first repetition";
      }
    }
    if (!error.empty()) {
      ++failed_;
      std::cout << "FAILED request " << rq.label << ": " << error << "\n";
    }
  }
  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }

 private:
  std::vector<std::uint64_t> first_;
  std::vector<char> seen_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

struct Setup {
  Workload wl;
  Checker chk;
  std::vector<double> setup_s;     ///< generate + warm-up, per set-up
  std::vector<double> generate_s;  ///< generation alone, per set-up
};

/// Generates the workload and runs one untimed warm-up request, kSetups
/// times; keeps the last workload.
Setup set_up(const Args& a) {
  Setup su;
  for (std::size_t k = 0; k < kSetups; ++k) {
    const Stopwatch sw;
    su.wl = make_workload(a.workload, a.seed, a.tiny);
    su.generate_s.push_back(sw.seconds());
    const SchedulerPtr sched = make_scheduler("loc-mps", su.wl.options);
    const Outcome warm =
        run_request(su.wl.requests.front(), *sched, su.wl.options, nullptr);
    su.setup_s.push_back(sw.seconds());
    su.chk.record(su.wl.requests.front(), 0, warm);
  }
  return su;
}

/// A value printed in the result line with its unit.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string m = line.substr(colon + 1);
        m.erase(0, m.find_first_not_of(' '));
        return m;
      }
    }
  return "unknown";
}

void print_fingerprint(const Args& a) {
  std::cout << "fingerprint {\"nproc\": " << std::thread::hardware_concurrency()
            << ", \"cpu_model\": \"" << obs::json_escape(cpu_model())
            << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
            << "\", \"profile_alloc\": "
            << (obs::alloc_counting_enabled() ? "true" : "false")
            << ", \"git_sha\": \"" << obs::json_escape(a.git_sha) << "\"}\n";
}

int finish(const Args& a, const Checker& chk,
           const std::vector<Metric>& metrics) {
  std::cout << "workload " << a.workload << " seed " << a.seed << " trace "
            << a.trace << "\n";
  for (const Metric& m : metrics)
    std::cout << "  " << m.name << " = " << fmt(m.value) << " " << m.unit
              << "\n";
  print_fingerprint(a);
  const bool ok = chk.failed() == 0;
  std::cout << "{\"correct\": " << (ok ? "true" : "false")
            << ", \"attempted\": " << chk.attempted()
            << ", \"failed\": " << chk.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::cout << (i ? ", " : "") << "\"" << metrics[i].name
              << "\": {\"value\": " << fmt(metrics[i].value)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  std::cout << "}}" << std::endl;
  return ok ? 0 : 1;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Whole passes over the request list keep the request mix the same in
/// every run: as many as fit \p seconds at the first pass's pace, at
/// least one. \p pass(k) runs pass k.
template <typename Pass>
void run_passes(double seconds, Pass&& pass) {
  const Stopwatch sw;
  pass(std::size_t{0});
  const double n = std::max(1.0, std::round(seconds / sw.seconds()));
  for (std::size_t k = 1; static_cast<double>(k) < n; ++k) pass(k);
}

/// --trace 0: the end-to-end metrics.
int run_plain(const Args& a) {
  Setup su = set_up(a);
  const Workload& wl = su.wl;
  Checker& chk = su.chk;
  const SchedulerPtr sched = make_scheduler("loc-mps", wl.options);

  std::vector<double> plan_s;
  std::vector<double> log_ratio(wl.requests.size(), 0.0);
  run_passes(a.seconds, [&](std::size_t pass) {
    for (std::size_t i = 0; i < wl.requests.size(); ++i) {
      const Request& rq = wl.requests[i];
      const Outcome o = run_request(rq, *sched, wl.options, nullptr);
      chk.record(rq, i, o);
      plan_s.push_back(o.seconds);
      if (pass == 0 && o.error.empty())
        log_ratio[i] = std::log(o.makespan / rq.lower_bound);
    }
  });
  const double busy = std::accumulate(plan_s.begin(), plan_s.end(), 0.0);

  std::vector<Metric> m{
      {"setup_s", median(su.setup_s), "s"},
      {"plan_s_p50", median(plan_s), "s"},
      {"plans_per_s", ratio(static_cast<double>(plan_s.size()), busy), "1/s"},
      {"makespan_lb_ratio",
       std::exp(std::accumulate(log_ratio.begin(), log_ratio.end(), 0.0) /
                static_cast<double>(log_ratio.size())),
       "ratio"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  std::cout << "requests " << plan_s.size() << " (" << wl.requests.size()
            << " distinct)\n";
  if (plan_s.size() >= 100)
    std::cout << "  plan_s_p90 = " << fmt(quantile(plan_s, 0.9)) << " s (n="
              << plan_s.size() << ")\n";
  else
    std::cout << "  plan_s_p90 not reported: " << plan_s.size()
              << " samples < 100\n";
  std::cout << "  failed_frac = "
            << fmt(ratio(static_cast<double>(chk.failed()),
                         static_cast<double>(chk.attempted())))
            << " (" << chk.failed() << "/" << chk.attempted() << ")\n";
  return finish(a, chk, m);
}

/// Counters the traced plans leave in the registry, summed over plans.
struct PlanCounters {
  double plans = 0, plan_s = 0, locbs_calls = 0, replayed = 0, placed = 0,
         holes = 0, cost_evals = 0, backfill_hits = 0;

  void add(const obs::MetricsRegistry& reg, double seconds) {
    plans += 1;
    plan_s += seconds;
    locbs_calls += reg.value("locmps.locbs_calls");
    replayed += reg.value("incr.replayed_tasks");
    placed += reg.value("locbs.tasks_placed");
    holes += reg.value("locbs.holes_scanned");
    cost_evals += reg.value("comm.cost_evals");
    backfill_hits += reg.value("locbs.backfill_hits");
  }
};

/// Per-layer timings taken from this file around public calls.
struct LayerTimes {
  std::vector<double> eval_s, concurrency_s, levels_s, simulate_s;
  double probe_s = 0, probes = 0, occupy_s = 0, placements = 0;
  double remote_volume_s = 0, transfer_time_s = 0, edges = 0;
  double online_s = 0, initial_s = 0, replans = 0, online_runs = 0;
  double sink = 0;  // keeps timed results observable
};

/// Replays a schedule through a fresh Timeline in start order: the
/// candidate instants from the task's data-ready time, an availability
/// probe at each one up to the placement's start, then the booking.
void time_timeline(const TaskGraph& g, const Schedule& s, LayerTimes& lt) {
  std::vector<TaskId> order(s.num_tasks());
  std::iota(order.begin(), order.end(), TaskId{0});
  std::sort(order.begin(), order.end(), [&s](TaskId x, TaskId y) {
    const Placement& a = s.at(x);
    const Placement& b = s.at(y);
    if (a.busy_from != b.busy_from) return a.busy_from < b.busy_from;
    return x < y;
  });
  Timeline tl(s.num_procs());
  Timeline::Sweep sweep(tl);
  std::vector<Timeline::FreeProc> avail;
  for (const TaskId t : order) {
    const Placement& p = s.at(t);
    double ready = 0.0;
    for (const EdgeId e : g.in_edges(t))
      ready = std::max(ready, s.at(g.edge(e).src).finish);
    const std::vector<double> cands = tl.candidate_times(ready);
    const Stopwatch sw;
    for (const double c : cands) {
      if (c > p.busy_from) break;
      sweep.available_at(c, avail);
      lt.probes += 1;
    }
    lt.probe_s += sw.seconds();
    lt.sink += static_cast<double>(avail.size());
    const Stopwatch so;
    tl.occupy(p.procs, p.busy_from, p.finish);
    lt.occupy_s += so.seconds();
    lt.placements += 1;
  }
}

void time_layers(const Request& rq, const SchedulerResult& plan,
                 LayerTimes& lt) {
  const TaskGraph& g = rq.g;
  const CommModel comm(rq.cluster);
  for (std::size_t k = 0; k < kEvalReps; ++k) {
    const Stopwatch sw;
    lt.sink += locbs(g, plan.allocation, comm).makespan;
    lt.eval_s.push_back(sw.seconds());
  }
  time_timeline(g, plan.schedule, lt);

  const Schedule& s = plan.schedule;
  Stopwatch sw;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge& ed = g.edge(e);
    lt.sink += remote_volume(ed.volume_bytes, s.at(ed.src).procs,
                             s.at(ed.dst).procs);
  }
  lt.remote_volume_s += sw.seconds();
  sw.reset();
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge& ed = g.edge(e);
    lt.sink += comm.transfer_time(ed.volume_bytes, s.at(ed.src).procs,
                                  s.at(ed.dst).procs);
  }
  lt.transfer_time_s += sw.seconds();
  lt.edges += static_cast<double>(g.num_edges());

  sw.reset();
  const ConcurrencyAnalysis conc(g);
  lt.concurrency_s.push_back(sw.seconds());
  lt.sink += conc.ratio(0);
  sw.reset();
  const Levels lv = compute_levels(
      g, [&](TaskId t) { return g.task(t).profile.time(plan.allocation[t]); },
      [&](EdgeId e) {
        const Edge& ed = g.edge(e);
        return comm.edge_cost(ed.volume_bytes, plan.allocation[ed.src],
                              plan.allocation[ed.dst]);
      });
  lt.levels_s.push_back(sw.seconds());
  lt.sink += lv.critical_path_length();

  sw.reset();
  lt.sink += simulate_execution(g, s, comm).makespan;
  lt.simulate_s.push_back(sw.seconds());
}

/// The guarded traced context: a registry and nothing else.
void require_counters_only(const obs::ObsContext* ctx) {
  if (ctx == nullptr || ctx->metrics == nullptr || ctx->sink != nullptr ||
      ctx->profile != nullptr)
    throw std::logic_error(
        "traced run must attach a MetricsRegistry and no EventSink or "
        "Profiler: either one switches LoC-MPS to its from-scratch path");
}

/// Plans \p rq with a registry attached, timed, into \p pc; returns the plan.
SchedulerResult traced_plan(const Request& rq, const Scheduler& sched,
                            obs::ObsContext& ctx, PlanCounters& pc) {
  require_counters_only(sched.observability());
  ctx.metrics->reset();
  const Stopwatch sw;
  SchedulerResult r = sched.schedule(rq.g, rq.cluster);
  pc.add(*ctx.metrics, sw.seconds());
  return r;
}

/// --trace 1: untraced and traced twins of each request, interleaved, then
/// the per-layer timings over one pass of the request list.
int run_traced(const Args& a) {
  Setup su = set_up(a);
  const Workload& wl = su.wl;
  Checker& chk = su.chk;
  const SchedulerPtr plain = make_scheduler("loc-mps", wl.options);
  const SchedulerPtr traced = make_scheduler("loc-mps", wl.options);
  obs::MetricsRegistry reg;
  obs::ObsContext ctx;
  ctx.metrics = &reg;
  traced->attach_observability(&ctx);
  require_counters_only(traced->observability());

  std::vector<double> untraced_s, traced_s;
  std::vector<SchedulerResult> plans(wl.requests.size());
  std::vector<Outcome> online_first(wl.requests.size());
  PlanCounters pc;
  run_passes(a.seconds, [&](std::size_t pass) {
    for (std::size_t i = 0; i < wl.requests.size(); ++i) {
      const Request& rq = wl.requests[i];
      const Outcome u = run_request(rq, *plain, wl.options, nullptr);
      chk.record(rq, i, u);
      untraced_s.push_back(u.seconds);
      require_counters_only(&ctx);
      reg.reset();
      Outcome t = run_request(rq, *traced, wl.options, &ctx);
      chk.record(rq, i, t);
      traced_s.push_back(t.seconds);
      if (pass > 0) continue;
      if (rq.online) {
        online_first[i] = std::move(t);
      } else {
        pc.add(reg, t.seconds);
        plans[i] = std::move(t.plan);
      }
    }
  });

  // Layer probes, once per distinct request. Online requests are probed
  // on their initial plan, and their planner counters come from it (the
  // online executor does not forward the registry to its planner).
  LayerTimes lt;
  for (std::size_t i = 0; i < wl.requests.size(); ++i) {
    const Request& rq = wl.requests[i];
    if (rq.online) {
      LocMPSScheduler initial(online_options(rq, wl.options).planner);
      initial.attach_observability(&ctx);
      const double before = pc.plan_s;
      plans[i] = traced_plan(rq, initial, ctx, pc);
      lt.initial_s += pc.plan_s - before;
      lt.online_s += online_first[i].seconds;
      lt.replans += static_cast<double>(online_first[i].replans);
      lt.online_runs += 1;
    }
    time_layers(rq, plans[i], lt);
  }
  // Workloads without online requests still exercise the online layer:
  // one run_online on their first request, capped at a few replans.
  if (lt.online_runs == 0) {
    Request rq = wl.requests.front();
    rq.online = true;
    rq.noise_seed = a.seed;
    rq.max_replans = kProbeReplans;
    const Outcome o = run_request(rq, *plain, wl.options, nullptr);
    chk.record(rq, wl.requests.size(), o);
    const LocMPSScheduler initial(online_options(rq, wl.options).planner);
    const Stopwatch sw;
    lt.sink += initial.schedule(rq.g, rq.cluster).estimated_makespan;
    lt.initial_s += sw.seconds();
    lt.online_s += o.seconds;
    lt.replans += static_cast<double>(o.replans);
    lt.online_runs += 1;
  }

  const double untraced_p50 = median(untraced_s);
  const double traced_p50 = median(traced_s);
  std::vector<Metric> m{
      {"trace_overhead", ratio(traced_p50, untraced_p50), "ratio"},
      {"loc_mps.locbs_calls", ratio(pc.locbs_calls, pc.plans), "count"},
      {"loc_mps.s_per_eval", ratio(pc.plan_s, pc.locbs_calls), "s"},
      {"loc_mps.replay_frac", ratio(pc.replayed, pc.placed), "ratio"},
      {"locbs.eval_s", median(lt.eval_s), "s"},
      {"locbs.holes_per_placement", ratio(pc.holes, pc.placed), "count"},
      {"locbs.cost_evals_per_placement", ratio(pc.cost_evals, pc.placed),
       "count"},
      {"locbs.backfill_hit_frac", ratio(pc.backfill_hits, pc.placed),
       "ratio"},
      {"timeline.probe_ns", 1e9 * ratio(lt.probe_s, lt.probes), "ns"},
      {"timeline.probes_per_placement", ratio(lt.probes, lt.placements),
       "count"},
      {"timeline.occupy_ns", 1e9 * ratio(lt.occupy_s, lt.placements), "ns"},
      {"network.transfer_time_ns", 1e9 * ratio(lt.transfer_time_s, lt.edges),
       "ns"},
      {"network.remote_volume_ns", 1e9 * ratio(lt.remote_volume_s, lt.edges),
       "ns"},
      {"network.calls_per_request", ratio(pc.cost_evals, pc.plans), "count"},
      {"graph.concurrency_s", median(lt.concurrency_s), "s"},
      {"graph.levels_s", median(lt.levels_s), "s"},
      {"event_sim.simulate_s", median(lt.simulate_s), "s"},
      {"online.replans", ratio(lt.replans, lt.online_runs), "count"},
      {"online.s_per_replan", ratio(lt.online_s - lt.initial_s, lt.replans),
       "s"},
      {"workloads.generate_s", median(su.generate_s), "s"},
  };
  std::cout << "plan_s_p50 untraced " << fmt(untraced_p50) << " s, traced "
            << fmt(traced_p50) << " s (n=" << traced_s.size()
            << " each); loc_mps.locbs_calls x locbs.eval_s = "
            << fmt(ratio(pc.locbs_calls, pc.plans) * median(lt.eval_s))
            << " s; checksum " << fmt(lt.sink) << "\n";
  return finish(a, chk, m);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = std::stoi(v) != 0;
    else if (k == "--size") {
      if (v != "tiny" && v != "full")
        throw std::invalid_argument("--size must be full or tiny");
      a.tiny = v == "tiny";
    } else if (k == "--git-sha") a.git_sha = v;
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse(argc, argv);
    return a.trace ? run_traced(a) : run_plain(a);
  } catch (const std::exception& e) {
    std::cerr << "locmps_perfbench: " << e.what() << "\n";
    return 2;
  }
}
