/// Differential-equivalence oracle for incremental replanning
/// (schedulers/incremental.hpp, docs/incremental.md).
///
/// The contract: LoC-MPS with `incremental = true` — prefix replay of
/// recorded LoCBS evaluations, continued while each live priority pick
/// matches the record — must be observably identical to the from-scratch
/// reference on every workload: same placements, same makespan, same
/// counters (outside the digest-excluded incr.* family), same
/// sample-series values, same decision-event stream when traced, and the
/// same post-mortem analysis. Only the incr.* counters may reveal which
/// path ran. Traced and profiled runs replay too: an attached instrument
/// never changes the path. The suite runs every workload of the seeded
/// sweep through both sides and asserts with the shared
/// DifferentialChecker (tests/test_util.hpp).

#include "schedulers/incremental.hpp"

#include <algorithm>
#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "network/comm_model.hpp"
#include "obs/analysis.hpp"
#include "obs/profile.hpp"
#include "schedulers/loc_mps.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"
#include "workloads/strassen.hpp"
#include "workloads/synthetic.hpp"
#include "workloads/tce.hpp"

using namespace locmps;
using test::DifferentialChecker;
using test::RunCapture;

namespace {

RunCapture run(const TaskGraph& g, const Cluster& cluster, bool incremental,
               bool with_sink, std::size_t max_locbs_calls = 100000,
               const LocBSOptions& locbs = {}) {
  LocMPSOptions opt;
  opt.incremental = incremental;
  opt.max_locbs_calls = max_locbs_calls;
  opt.locbs = locbs;
  return test::run_locmps_capture(g, cluster, opt, with_sink);
}

/// The seeded workload sweep: synthetic DAGs across CCR regimes, Strassen,
/// and a TCE CCSD T1 instance (scaled to test size).
std::vector<std::pair<std::string, TaskGraph>> sweep_workloads() {
  std::vector<std::pair<std::string, TaskGraph>> ws;
  for (const double ccr : {0.0, 0.5, 2.0}) {
    SyntheticParams p;
    p.ccr = ccr;
    p.max_procs = 16;
    const auto suite = make_synthetic_suite(
        p, 2, 9000 + static_cast<std::uint64_t>(ccr * 10.0));
    for (std::size_t i = 0; i < suite.size(); ++i)
      ws.emplace_back("synthetic ccr=" + std::to_string(ccr) + " #" +
                          std::to_string(i),
                      suite[i]);
  }
  StrassenParams sp;
  sp.n = 512;
  sp.max_procs = 16;
  ws.emplace_back("strassen 512", make_strassen(sp));
  TCEParams tp;
  tp.occupied = 8;
  tp.virt = 32;
  tp.max_procs = 16;
  ws.emplace_back("ccsd t1 (8,32)", make_ccsd_t1(tp));
  return ws;
}

// ---------------------------------------------------------------------------
// The oracle: incremental on vs off, every workload

TEST(IncrementalOracle, MetricsOnlyRunsAreBitIdentical) {
  const Cluster cluster(16);
  for (const auto& [label, g] : sweep_workloads()) {
    const RunCapture off = run(g, cluster, /*incremental=*/false, false);
    const RunCapture on = run(g, cluster, /*incremental=*/true, false);
    DifferentialChecker(g).expect_identical(off, on, label);
  }
  // Tight LoCBS budgets cut look-ahead walks short mid-round; both sides
  // must stop at the same evaluation.
  SyntheticParams p;
  p.ccr = 1.0;
  p.max_procs = 16;
  Rng rng(17);
  const TaskGraph g = make_synthetic_dag(p, rng);
  for (const std::size_t cap : {5u, 25u, 60u}) {
    const RunCapture off = run(g, cluster, false, false, cap);
    const RunCapture on = run(g, cluster, true, false, cap);
    DifferentialChecker(g).expect_identical(
        off, on, "budget=" + std::to_string(cap));
  }
  // LoCBS variants: comm-blind priorities (iCASLB), the no-backfill hole
  // scan (LoC-MPS-nbf), slack-inflated reservations, a platform where
  // redistributions occupy the destination processors (no overlap), and
  // an armed perturb_task, whose final realization bypasses replay.
  LocBSOptions perturbed;
  perturbed.perturb_task = 1;
  LocBSOptions blind;
  blind.comm_blind = true;
  LocBSOptions nbf;
  nbf.backfill = false;
  LocBSOptions slack;
  slack.slack_factor = 1.25;
  const Cluster no_overlap(16, kFastEthernetBytesPerSec, /*overlap=*/false);
  const struct {
    const char* label;
    const Cluster& cluster;
    LocBSOptions locbs;
  } variants[] = {{"comm_blind", cluster, blind},
                  {"no backfill", cluster, nbf},
                  {"slack=1.25", cluster, slack},
                  {"no overlap", no_overlap, {}},
                  {"perturb_task=1", cluster, perturbed}};
  for (const auto& v : variants) {
    const RunCapture off = run(g, v.cluster, false, false, 100000, v.locbs);
    const RunCapture on = run(g, v.cluster, true, false, 100000, v.locbs);
    DifferentialChecker(g).expect_identical(off, on, v.label);
  }
}

TEST(IncrementalOracle, TracedRunsAreBitIdentical) {
  // With an event sink attached, replayed placements re-emit the
  // provenance their scan recorded: the whole decision-event stream,
  // beyond the buffer's retention bound too, must match from-scratch.
  const Cluster cluster(16);
  for (const auto& [label, g] : sweep_workloads()) {
    const RunCapture off = run(g, cluster, false, /*with_sink=*/true);
    const RunCapture on = run(g, cluster, true, /*with_sink=*/true);
    DifferentialChecker(g).expect_identical(off, on, label + " traced");
  }
}

TEST(IncrementalOracle, AnalysesAgree) {
  // The post-mortem analyzer consumes the realized schedule; both sides
  // must decompose to the same utilization, holes, locality, and blame.
  const Cluster cluster(16);
  const CommModel comm{cluster};
  SyntheticParams p;
  p.ccr = 1.0;
  p.max_procs = 16;
  Rng rng(777);
  const TaskGraph g = make_synthetic_dag(p, rng);
  const RunCapture off = run(g, cluster, false, false);
  const RunCapture on = run(g, cluster, true, false);
  const DifferentialChecker check(g);
  check.expect_identical(off, on, "analysis workload");
  const auto a_off = obs::analyze_schedule(g, off.result.schedule, comm);
  const auto a_on = obs::analyze_schedule(g, on.result.schedule, comm);
  check.expect_same_analysis(a_off, a_on, "analysis");
}

TEST(IncrementalOracle, CountersExposeTheReplay) {
  // The incremental run accounts its work in the digest-excluded incr.*
  // family: dirty (re-scanned) tasks and replayed tasks. The from-scratch
  // side reports none of them.
  const Cluster cluster(16);
  SyntheticParams p;
  p.ccr = 1.0;
  p.max_procs = 16;
  Rng rng(777);
  const TaskGraph g = make_synthetic_dag(p, rng);

  const RunCapture off = run(g, cluster, false, false);
  for (const auto& kv : off.metrics.counters)
    EXPECT_FALSE(kv.first.rfind("incr.", 0) == 0) << kv.first;

  const RunCapture on = run(g, cluster, true, false);
  EXPECT_GT(on.metrics.counter("incr.dirty_tasks"), 0.0);
  EXPECT_GT(on.metrics.counter("incr.replayed_tasks"), 0.0);
  // Replay amortizes: across a whole refinement run most placements come
  // from the recorded prefix, not a fresh scan.
  EXPECT_GT(on.metrics.counter("incr.replayed_tasks"),
            on.metrics.counter("incr.dirty_tasks"));

  // Instruments watch the same path: a sink or a profiler leaves replay on.
  const RunCapture traced = run(g, cluster, true, /*with_sink=*/true);
  EXPECT_GT(traced.metrics.counter("incr.replayed_tasks"), 0.0);
  LocMPSScheduler sched;
  obs::MetricsRegistry reg;
  obs::Profiler prof;
  obs::ObsContext ctx{&reg, nullptr, &prof};
  sched.attach_observability(&ctx);
  sched.schedule(g, cluster);
  EXPECT_GT(reg.snapshot().counter("incr.replayed_tasks"), 0.0);
}

TEST(IncrementalOracle, TracingAddsNoEvaluations) {
  // The refinement loop ends on a realization of the final allocation, so
  // a traced run needs no extra pass to end its trace on the committed
  // schedule: it evaluates and places exactly what a metrics-only run does.
  const Cluster cluster(16);
  SyntheticParams p;
  p.ccr = 1.0;
  p.max_procs = 16;
  Rng rng(777);
  const TaskGraph g = make_synthetic_dag(p, rng);
  for (const bool incremental : {false, true}) {
    const RunCapture plain = run(g, cluster, incremental, false);
    const RunCapture traced = run(g, cluster, incremental, true);
    const std::string label = incremental ? "incremental" : "from-scratch";
    EXPECT_EQ(plain.result.iterations, traced.result.iterations) << label;
    EXPECT_EQ(plain.metrics.counter("locmps.locbs_calls"),
              traced.metrics.counter("locmps.locbs_calls"))
        << label;
    EXPECT_EQ(plain.metrics.counter("locbs.tasks_placed"),
              traced.metrics.counter("locbs.tasks_placed"))
        << label;
  }
}

TEST(IncrementalOracle, FixedPrefixReplansAreBitIdentical) {
  // The online-rescheduling entry point threads the same machinery;
  // replanning around a frozen prefix must also be mode-invariant.
  const Cluster cluster(16);
  SyntheticParams p;
  p.ccr = 0.5;
  p.max_procs = 16;
  Rng rng(4242);
  const TaskGraph g = make_synthetic_dag(p, rng);

  // Freeze the earliest-starting quarter of an initial schedule — a
  // start-time-closed prefix, as a real mid-run replan would see.
  LocMPSOptions base;
  base.incremental = false;
  const SchedulerResult seed = LocMPSScheduler(base).schedule(g, cluster);
  std::vector<TaskId> by_start(g.num_tasks());
  for (TaskId t = 0; t < g.num_tasks(); ++t) by_start[t] = t;
  std::sort(by_start.begin(), by_start.end(), [&](TaskId a, TaskId b) {
    return seed.schedule.at(a).start < seed.schedule.at(b).start;
  });
  FixedPrefix fixed;
  fixed.frozen.assign(g.num_tasks(), 0);
  fixed.placements = &seed.schedule;
  double latest = 0.0;
  for (std::size_t i = 0; i < by_start.size() / 4; ++i) {
    fixed.frozen[by_start[i]] = 1;
    latest = std::max(latest, seed.schedule.at(by_start[i]).start);
  }
  fixed.not_before = latest;

  auto replan = [&](bool incremental) {
    LocMPSOptions opt;
    opt.incremental = incremental;
    return LocMPSScheduler(opt).schedule_with_fixed(g, cluster, fixed);
  };
  const SchedulerResult off = replan(false);
  const SchedulerResult on = replan(true);
  EXPECT_EQ(off.estimated_makespan, on.estimated_makespan);
  ASSERT_EQ(off.allocation, on.allocation);
  for (TaskId t : g.task_ids()) {
    const Placement& a = off.schedule.at(t);
    const Placement& b = on.schedule.at(t);
    EXPECT_EQ(a.start, b.start) << "task " << t;
    EXPECT_EQ(a.finish, b.finish) << "task " << t;
    EXPECT_TRUE(a.procs == b.procs) << "task " << t;
  }
}

// ---------------------------------------------------------------------------
// Unit coverage of the incremental building blocks

TEST(IncrementalContext, PicksTheLongestMatchingRecord) {
  IncrementalContext ctx;
  auto mk = [](std::initializer_list<std::size_t> np) {
    ReplayRecord r;
    r.np = np;
    for (std::size_t i = 0; i < r.np.size(); ++i) {
      auto s = std::make_shared<ReplayStep>();
      s->task = static_cast<TaskId>(i);
      s->np = r.np[i];
      r.steps.push_back(std::move(s));
    }
    return r;
  };
  EXPECT_EQ(ctx.pick_record({1, 1, 1}), nullptr);
  ctx.remember(mk({1, 1, 1}));
  ctx.remember(mk({1, 2, 1}));
  // {1, 2, 2} shares a 2-allocation prefix with {1, 2, 1} but only 1 with
  // {1, 1, 1}; the longer match wins.
  const ReplayRecord* r = ctx.pick_record({1, 2, 2});
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->np, (Allocation{1, 2, 1}));
  // Bounded history: remembering past the cap drops the oldest record.
  for (std::size_t w = 0; w < IncrementalContext::kMaxRecords; ++w)
    ctx.remember(mk({4 + w, 4 + w, 4 + w}));
  EXPECT_EQ(ctx.pick_record({1, 1, 1}), nullptr);
}

}  // namespace
