#include "schedulers/loc_mps.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <tuple>
#include <utility>

#include "graph/algorithms.hpp"
#include "obs/profile.hpp"
#include "schedulers/incremental.hpp"

namespace locmps {

namespace {

/// One refinement step (Alg. 1 steps 8-14): the task or edge that was
/// widened. The first step of a look-ahead round is its entry point
/// (steps 16-17 / 28-29), marked as a bad start when the round fails.
struct Refinement {
  bool is_task = true;
  TaskId task = kNoTask;
  EdgeId edge = kNoEdge;
  bool widened_src = false;
  bool widened_dst = false;
};

}  // namespace

SchedulerResult LocMPSScheduler::schedule(const TaskGraph& g,
                                          const Cluster& cluster) const {
  return run(g, cluster, nullptr);
}

SchedulerResult LocMPSScheduler::schedule_with_fixed(
    const TaskGraph& g, const Cluster& cluster,
    const FixedPrefix& fixed) const {
  return run(g, cluster, &fixed);
}

SchedulerResult LocMPSScheduler::run(const TaskGraph& g,
                                     const Cluster& cluster,
                                     const FixedPrefix* fixed) const {
  const std::size_t n = g.num_tasks();
  const std::size_t P = cluster.processors;
  obs::ObsContext* const obs = observability();
  obs::MetricsRegistry* const met = obs::metrics_of(obs);
  LOCMPS_SPAN(obs, "locmps.run");
  CommModel comm(cluster);
  if (met != nullptr)
    comm.count_evals_into(met->cell_ptr("comm.cost_evals"));
  const ConcurrencyAnalysis conc(g);

  // On a degraded cluster (faults/recovery.hpp) non-frozen tasks can only
  // be as wide as the survivor set.
  const std::size_t usable =
      (fixed != nullptr && fixed->available != nullptr)
          ? fixed->available->count()
          : P;

  // Saturation bound per task: min(P, Pbest) (Alg. 1 step 14), further
  // capped at the survivor count on a degraded cluster; frozen tasks keep
  // their committed processor count.
  Allocation best_alloc(n, 1);
  std::vector<std::size_t> cap(n);
  for (TaskId t = 0; t < n; ++t) {
    cap[t] = std::min(usable, g.task(t).profile.pbest());
    if (fixed != nullptr && fixed->is_frozen(t)) {
      best_alloc[t] = fixed->placements->at(t).np();
      cap[t] = best_alloc[t];
    }
  }
  // Widening bound for communication edges: the usable width unless frozen.
  auto ecap = [&](TaskId t) {
    return (fixed != nullptr && fixed->is_frozen(t)) ? cap[t] : usable;
  };

  // The refinement search always runs unperturbed: a mid-search placement
  // flip would diverge the whole trajectory and smear a seeded divergence
  // across many tasks. The perturb_task hook (locbs.hpp) is applied only
  // in the final realization below, so a perturbed run differs from its
  // baseline by exactly that flip.
  LocBSOptions lopt = opt_.locbs;
  const TaskId perturb = lopt.perturb_task;
  lopt.perturb_task = kNoTask;

  // Incremental replanning (docs/incremental.md): the refinement stream's
  // LoCBS evaluations replay their unchanged placement prefix from a
  // recorded earlier evaluation, traced and profiled runs included.
  IncrementalContext session_incr;
  IncrementalContext* const sincr =
      opt_.incremental ? &session_incr : nullptr;

  LocBSResult best_run = locbs(g, best_alloc, comm, lopt, fixed, obs, sincr);
  double best_sl = best_run.makespan;
  std::size_t calls = 1;
  if (obs::wants_events(obs))
    obs->sink->emit(obs::Event("locmps.begin")
                        .with("tasks", static_cast<std::uint64_t>(n))
                        .with("procs", static_cast<std::uint64_t>(P))
                        .with("comm_aware", !opt_.locbs.comm_blind)
                        .with("initial_makespan", best_sl));
  if (met != nullptr) met->sample("locmps.best_makespan", best_sl);

  std::vector<char> marked_task(n, 0);
  std::vector<char> marked_edge(g.num_edges(), 0);

  // Chooses the best candidate task on the critical path: among the
  // top fraction by execution-time gain, the one with the lowest
  // concurrency ratio (Section III-C).
  auto pick_task = [&](const CriticalPathInfo& cp, const Allocation& np,
                       bool respect_marks) -> TaskId {
    std::vector<TaskId> cand;
    for (TaskId t : cp.tasks) {
      if (np[t] >= cap[t]) continue;
      if (respect_marks && marked_task[t]) continue;
      cand.push_back(t);
    }
    if (cand.empty()) return kNoTask;
    auto gain = [&](TaskId t) {
      return g.task(t).profile.time(np[t]) -
             g.task(t).profile.time(np[t] + 1);
    };
    std::sort(cand.begin(), cand.end(), [&](TaskId a, TaskId b) {
      const double ga = gain(a), gb = gain(b);
      // Exact inequality: the tie-break must see identical gains as equal
      // so the task-id fallback keeps the order deterministic.
      if (ga != gb) return ga > gb;  // LINT-ALLOW(float-eq)
      return a < b;
    });
    const std::size_t k = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::ceil(opt_.candidate_top_fraction *
                         static_cast<double>(cand.size()))));
    TaskId best = cand[0];
    for (std::size_t i = 1; i < k; ++i)
      if (conc.ratio(cand[i]) < conc.ratio(best)) best = cand[i];
    return best;
  };

  // Chooses the heaviest refinable communication edge on the critical path
  // (Section III-D). Returns kNoEdge if none qualifies.
  auto pick_edge = [&](const CriticalPathInfo& cp, const ScheduleDag& dag,
                       const Allocation& np, bool respect_marks) -> EdgeId {
    EdgeId best = kNoEdge;
    double best_w = 0.0;
    for (EdgeId e : cp.edges) {
      if (e == kNoEdge) continue;  // pseudo-edge
      if (respect_marks && marked_edge[e]) continue;
      const Edge& ed = g.edge(e);
      if (np[ed.src] >= ecap(ed.src) && np[ed.dst] >= ecap(ed.dst)) continue;
      const double w = dag.edge_time(e);
      if (w > best_w) {
        best_w = w;
        best = e;
      }
    }
    return best;
  };

  // Widens the thinner endpoint of edge e (both when tied), respecting
  // each endpoint's widening bound. Returns {src widened, dst widened}.
  auto widen_edge = [&](EdgeId e, Allocation& np) -> std::pair<bool, bool> {
    const Edge& ed = g.edge(e);
    const bool src_ok = np[ed.src] < ecap(ed.src);
    const bool dst_ok = np[ed.dst] < ecap(ed.dst);
    if (np[ed.src] > np[ed.dst] && dst_ok) {
      np[ed.dst] += 1;
      return {false, true};
    }
    if (np[ed.src] < np[ed.dst] && src_ok) {
      np[ed.src] += 1;
      return {true, false};
    }
    if (dst_ok) np[ed.dst] += 1;
    if (src_ok) np[ed.src] += 1;
    return {src_ok, dst_ok};
  };

  const bool comm_aware = !opt_.locbs.comm_blind;

  // One refinement of \p np along critical path \p cp (Alg. 1 steps 8-14):
  // the dominating-cost branch first, the other as a fallback, so a step
  // is only abandoned (nullopt) when nothing on the path is refinable.
  auto refine = [&](const CriticalPathInfo& cp, const ScheduleDag& dag,
                    Allocation& np,
                    bool respect_marks) -> std::optional<Refinement> {
    const bool comp_dominates = !comm_aware || cp.comp_cost >= cp.comm_cost;
    for (int attempt = 0; attempt < 2; ++attempt) {
      const bool task_branch = (attempt == 0) == comp_dominates;
      if (task_branch) {
        const TaskId t = pick_task(cp, np, respect_marks);
        if (t != kNoTask) {
          np[t] += 1;
          return Refinement{true, t, kNoEdge};
        }
      } else if (comm_aware) {
        const EdgeId e = pick_edge(cp, dag, np, respect_marks);
        if (e != kNoEdge) {
          Refinement r{false, kNoTask, e};
          std::tie(r.widened_src, r.widened_dst) = widen_edge(e, np);
          return r;
        }
      }
    }
    return std::nullopt;
  };

  // Termination test (Alg. 1 step 40): every task on the incumbent's
  // critical path \p cp saturated or marked, and (when comm-aware) every
  // refinable path edge marked.
  auto exhausted_now = [&](const CriticalPathInfo& cp) -> bool {
    for (TaskId t : cp.tasks)
      if (best_alloc[t] < cap[t] && !marked_task[t]) return false;
    if (!comm_aware) return true;
    for (EdgeId e : cp.edges) {
      if (e == kNoEdge) continue;
      const Edge& ed = g.edge(e);
      if (marked_edge[e] || best_run.dag.edge_time(e) <= 0.0) continue;
      if (best_alloc[ed.src] < ecap(ed.src) ||
          best_alloc[ed.dst] < ecap(ed.dst))
        return false;
    }
    return true;
  };

  // The incumbent's critical path: it changes only when a round improves.
  auto incumbent_path = [&] {
    LOCMPS_SPAN(obs, "locmps.critical_path");
    return best_run.dag.critical_path();
  };
  CriticalPathInfo best_cp = incumbent_path();

  // Main repeat-until loop (Alg. 1 steps 5-40): one look-ahead round per
  // iteration, then commit-or-mark and the termination test.
  std::size_t round = 0;
  while (calls < opt_.max_locbs_calls) {
    ++round;
    // The round's entry point always respects the marks.
    Allocation np = best_alloc;
    CriticalPathInfo cp = best_cp;
    std::optional<Refinement> step =
        refine(cp, best_run.dag, np, /*respect_marks=*/true);
    if (!step) {
      // Nothing on the critical path is refinable: the final round opens
      // and immediately ends.
      if (obs::wants_events(obs))
        obs->sink->emit(obs::Event("locmps.lookahead_begin")
                            .with("round", static_cast<std::uint64_t>(round))
                            .with("best", best_sl));
      break;
    }
    const Refinement entry = *step;
    const double old_sl = best_sl;

    // Look-ahead walk (Alg. 1 steps 15-30): up to look_ahead_depth
    // refinements, passing through worse schedules; every strictly better
    // allocation becomes the incumbent on the spot, realization included.
    {
      LOCMPS_SPAN(obs, "locmps.walk");
      if (obs::wants_events(obs))
        obs->sink->emit(obs::Event("locmps.lookahead_begin")
                            .with("round", static_cast<std::uint64_t>(round))
                            .with("best", best_sl));
      std::optional<LocBSResult> cur;
      for (std::size_t iter = 0; iter < opt_.look_ahead_depth; ++iter) {
        if (iter > 0) {
          {
            LOCMPS_SPAN(obs, "locmps.critical_path");
            cp = cur->dag.critical_path();
          }
          step = refine(cp, cur->dag, np, opt_.marks_bind_lookahead);
          if (!step) break;
        }
        if (met != nullptr)
          met->add(step->is_task ? "locmps.widened_tasks"
                                 : "locmps.widened_edges");

        cur = locbs(g, np, comm, lopt, fixed, obs, sincr);
        ++calls;
        const bool adopted = cur->makespan < best_sl;
        if (adopted) {
          best_alloc = np;
          best_sl = cur->makespan;
          best_run = *cur;
        }
        if (obs::wants_events(obs)) {
          // One event per refinement: the critical-path diagnosis, the
          // widening decision, and its outcome. Together with
          // locmps.lookahead_begin these replay into the final allocation
          // (tests/test_obs_events.cpp reconstructs it).
          const bool comp_dominates =
              !comm_aware || cp.comp_cost >= cp.comm_cost;
          obs::Event ev =
              obs::Event("locmps.refine")
                  .with("round", static_cast<std::uint64_t>(round))
                  .with("iter", static_cast<std::uint64_t>(iter))
                  .with("cp_len", cp.length)
                  .with("comp_cost", cp.comp_cost)
                  .with("comm_cost", cp.comm_cost)
                  .with("dominant", comp_dominates ? "comp" : "comm");
          if (step->is_task) {
            const TaskId t = step->task;
            obs->sink->emit(
                std::move(ev)
                    .with("kind", "task")
                    .with("task", t)
                    .with("np_new", static_cast<std::uint64_t>(np[t]))
                    .with("gain", g.task(t).profile.time(np[t] - 1) -
                                      g.task(t).profile.time(np[t]))
                    .with("conc_ratio", conc.ratio(t))
                    .with("makespan", cur->makespan)
                    .with("adopted", adopted)
                    .with("best", best_sl));
          } else {
            const Edge& ed = g.edge(step->edge);
            obs->sink->emit(
                std::move(ev)
                    .with("kind", "edge")
                    .with("edge", step->edge)
                    .with("src", ed.src)
                    .with("dst", ed.dst)
                    .with("src_np_new",
                          static_cast<std::uint64_t>(np[ed.src]))
                    .with("dst_np_new",
                          static_cast<std::uint64_t>(np[ed.dst]))
                    .with("widened_src", step->widened_src)
                    .with("widened_dst", step->widened_dst)
                    .with("makespan", cur->makespan)
                    .with("adopted", adopted)
                    .with("best", best_sl));
          }
        }
        if (calls >= opt_.max_locbs_calls) break;
      }
    }

    // Commit-or-mark (Alg. 1 steps 31-38).
    const bool improved = best_sl < old_sl;
    if (improved) {
      std::fill(marked_task.begin(), marked_task.end(), 0);
      std::fill(marked_edge.begin(), marked_edge.end(), 0);
    } else if (entry.is_task) {
      marked_task[entry.task] = 1;
    } else {
      marked_edge[entry.edge] = 1;
    }
    if (met != nullptr) {
      met->add("locmps.rounds");
      met->add(improved ? "locmps.commits" : "locmps.reverts");
      if (!improved)
        met->add(entry.is_task ? "locmps.marked_tasks"
                               : "locmps.marked_edges");
    }
    if (obs::wants_events(obs))
      obs->sink->emit(
          obs::Event("locmps.lookahead")
              .with("round", static_cast<std::uint64_t>(round))
              .with("entry_kind", entry.is_task ? "task" : "edge")
              .with("entry", entry.is_task ? entry.task : entry.edge)
              .with("improved", improved)
              .with("old", old_sl)
              .with("best", best_sl));

    if (met != nullptr) {
      met->sample("locmps.best_makespan", best_sl);
      met->sample("locmps.locbs_calls", static_cast<double>(calls));
    }
    if (improved) best_cp = incumbent_path();
    if (exhausted_now(best_cp)) break;
  }

  // One final realization of best_alloc, so a trace's last
  // "locbs.decision" record per task is exactly the committed schedule —
  // rundiff and `--explain` read precisely those. An armed perturb_task
  // takes effect here and only here; that pass neither reads nor records
  // replay state, so the flip is its sole difference from the search.
  best_run = locbs(g, best_alloc, comm, opt_.locbs, fixed, obs,
                   perturb == kNoTask ? sincr : nullptr);
  best_sl = best_run.makespan;
  ++calls;

  if (met != nullptr) {
    met->set("locmps.locbs_calls", static_cast<double>(calls));
    met->sample("locmps.best_makespan", best_sl);
  }
  if (obs::wants_events(obs))
    obs->sink->emit(
        obs::Event("locmps.done")
            .with("makespan", best_sl)
            .with("locbs_calls", static_cast<std::uint64_t>(calls)));

  SchedulerResult out;
  out.schedule = std::move(best_run.schedule);
  out.allocation = std::move(best_alloc);
  out.estimated_makespan = best_sl;
  out.iterations = calls;
  return out;
}

}  // namespace locmps
