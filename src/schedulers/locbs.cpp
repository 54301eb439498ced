#include "schedulers/locbs.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "graph/algorithms.hpp"
#include "network/block_cyclic.hpp"
#include "obs/profile.hpp"
#include "obs/provenance.hpp"
#include "schedule/timeline.hpp"
#include "schedulers/incremental.hpp"
#include "util/stats.hpp"

namespace locmps {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Relative tolerance for "same instant" comparisons.
bool about(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max({1.0, std::fabs(a), std::fabs(b)});
}
bool later_than(double a, double b) {
  return a > b + 1e-9 * std::max({1.0, std::fabs(a), std::fabs(b)});
}

/// A candidate placement found during the hole scan.
struct Candidate {
  double finish = kInf;
  double start = 0.0;
  double busy_from = 0.0;
  bool resource_induced = false;  ///< start delayed by processor contention
  double touch = 0.0;             ///< instant whose finishers blocked us
  int subset = -1;                ///< 0 = locality-first, 1 = horizon-first
  std::vector<ProcId> procs;      ///< ascending
};

}  // namespace

LocBSResult locbs(const TaskGraph& g, const Allocation& np,
                  const CommModel& comm, const LocBSOptions& opt,
                  const FixedPrefix* fixed, obs::ObsContext* obs,
                  IncrementalContext* incr) {
  const std::size_t n = g.num_tasks();
  const std::size_t P = comm.cluster().processors;
  obs::MetricsRegistry* const met = obs::metrics_of(obs);
  LOCMPS_SPAN(obs, "locbs.pass");
  if (met != nullptr) met->add("locbs.calls");
  if (np.size() != n)
    throw std::invalid_argument("locbs: allocation size mismatch");
  if (!(opt.slack_factor >= 1.0))
    throw std::invalid_argument("locbs: slack_factor must be >= 1.0");
  if (fixed != nullptr && fixed->available != nullptr &&
      fixed->available->capacity() != P)
    throw std::invalid_argument(
        "locbs: FixedPrefix availability mask sized for a different cluster");
  // Non-frozen allocations must fit the survivor set when a degraded
  // cluster mask is active; frozen placements predate the failures and
  // may legitimately be wider.
  const std::size_t usable =
      (fixed != nullptr && fixed->available != nullptr)
          ? fixed->available->count()
          : P;
  for (std::size_t t = 0; t < n; ++t) {
    if (np[t] < 1 || np[t] > P)
      throw std::invalid_argument("locbs: np out of range");
    if (np[t] > usable && !(fixed != nullptr && fixed->is_frozen(t)))
      throw std::invalid_argument(
          "locbs: np exceeds the available (non-failed) processors");
  }

  const bool overlap = comm.overlap();

  // Allocation-dependent arrays (Alg. 2 step 4): execution times,
  // allocation-stage edge costs, bottom levels, and the static priority
  // bottomL(t) + max incoming edge weight.
  const std::size_t ne = g.num_edges();
  std::vector<double> et, west, prio;
  {
    LOCMPS_SPAN(obs, "locbs.edge_costs");
    et.resize(n);
    west.assign(ne, 0.0);
    // slack_factor > 1 books reservations longer than the profile
    // predicts (slack-aware placement); every downstream consumer —
    // priorities, hole feasibility, occupancy, G' vertex times — sees
    // the inflated model consistently.
    for (TaskId t = 0; t < n; ++t)
      et[t] = g.task(t).profile.time(np[t]) * opt.slack_factor;
    if (!opt.comm_blind)
      for (EdgeId e = 0; e < ne; ++e)
        west[e] = comm.edge_cost(g.edge(e).volume_bytes, np[g.edge(e).src],
                                 np[g.edge(e).dst]);
  }
  {
    LOCMPS_SPAN(obs, "locbs.priority");
    const std::vector<TaskId> order = topological_order(g);
    std::vector<double> bottom(n, 0.0);
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const TaskId t = *it;
      double below = 0.0;
      for (EdgeId e : g.out_edges(t))
        below = std::max(below, west[e] + bottom[g.edge(e).dst]);
      bottom[t] = et[t] + below;
    }
    prio.resize(n);
    for (TaskId t = 0; t < n; ++t) {
      double max_in = 0.0;
      for (EdgeId e : g.in_edges(t)) max_in = std::max(max_in, west[e]);
      prio[t] = bottom[t] + max_in;
    }
  }

  Timeline timeline(P);
  LocBSResult res{Schedule(n, P), ScheduleDag(g), 0.0};
  std::vector<double> ft(n, 0.0);
  std::vector<std::vector<ProcId>> placed(n);  // ascending proc lists
  std::vector<char> done(n, 0);

  // Sorted, deduplicated finish times of placed tasks: the only instants at
  // which processor availability changes (every busy window ends at a task
  // finish), hence the complete set of hole-start candidates.
  std::vector<double> finish_events;
  finish_events.reserve(n);

  // Import the frozen prefix (tasks already executing at replan time).
  std::size_t n_frozen = 0;
  if (fixed != nullptr) {
    if (fixed->placements == nullptr)
      throw std::invalid_argument("locbs: FixedPrefix without placements");
    for (TaskId t = 0; t < n; ++t) {
      if (!fixed->is_frozen(t)) continue;
      const Placement& pl = fixed->placements->at(t);
      if (!pl.scheduled())
        throw std::invalid_argument("locbs: frozen task not placed");
      res.schedule.place(t, pl.busy_from, pl.start, pl.finish, pl.procs);
      timeline.occupy(pl.procs, pl.busy_from, pl.finish);
      finish_events.push_back(pl.finish);
      ft[t] = pl.finish;
      placed[t] = pl.procs.to_vector();
      done[t] = 1;
      res.dag.set_vertex_time(t, pl.finish - pl.start);
      ++n_frozen;
    }
    std::sort(finish_events.begin(), finish_events.end(), total_less);
    finish_events.erase(
        std::unique(finish_events.begin(), finish_events.end()),
        finish_events.end());
  }

  std::vector<std::size_t> waiting(n);
  std::vector<TaskId> ready;
  for (TaskId t = 0; t < n; ++t) {
    if (done[t]) continue;
    std::size_t open = 0;
    for (EdgeId e : g.in_edges(t)) open += done[g.edge(e).src] ? 0 : 1;
    waiting[t] = open;
    if (open == 0) ready.push_back(t);
  }

  // Incremental replay (schedulers/incremental.hpp, docs/incremental.md):
  // pick the recorded evaluation with the longest matching prefix and
  // replay its placements verbatim until the first divergent priority
  // pick; only the dirty remainder is scanned. The placement scan is a
  // deterministic function of (picked task, its np, the committed prefix
  // state), so a matching pick with a matching processor count guarantees
  // a bit-identical placement — including its telemetry and provenance,
  // which replay from the recorded values.
  const ReplayRecord* rec = incr != nullptr ? incr->pick_record(np) : nullptr;
  std::size_t ri = 0;  // next recorded step to match
  bool replay_live = rec != nullptr;
  ReplayRecord newrec;  // this evaluation, recorded for future replays
  std::size_t replayed_tasks = 0;
  double* const evals_cell = comm.evals_cell();
  if (incr != nullptr) {
    newrec.np = np;
    newrec.steps.reserve(n - n_frozen);
  }
  // Per-placement counter cells, resolved once per pass instead of ~8
  // string-keyed registry lookups per placement (cell addresses are
  // stable; obs/metrics.hpp). Resolving creates the counters at zero, so
  // a pass always exposes the full locbs.* family.
  struct PlaceCells {
    double* tasks_placed = nullptr;
    double* holes_scanned = nullptr;
    double* backfill_hits = nullptr;
    double* scan_cutoffs = nullptr;
    double* locality_wins = nullptr;
    double* horizon_wins = nullptr;
    double* local_bytes = nullptr;
    double* remote_bytes = nullptr;
  } cells;
  if (met != nullptr) {
    cells.tasks_placed = met->cell_ptr("locbs.tasks_placed");
    cells.holes_scanned = met->cell_ptr("locbs.holes_scanned");
    cells.backfill_hits = met->cell_ptr("locbs.backfill_hits");
    cells.scan_cutoffs = met->cell_ptr("locbs.scan_cutoffs");
    cells.locality_wins = met->cell_ptr("locbs.locality_subset_wins");
    cells.horizon_wins = met->cell_ptr("locbs.horizon_subset_wins");
    cells.local_bytes = met->cell_ptr("locbs.local_bytes");
    cells.remote_bytes = met->cell_ptr("locbs.remote_bytes");
  }

  // Scratch buffers shared across task placements (hot loop: no per-task
  // heap churn).
  struct DursCache {
    std::vector<ProcId> procs;
    std::vector<double> durs;
    std::vector<double> rvol;  ///< remote bytes per comm edge (pre-duration)
  };
  DursCache durs_cache[4];
  std::vector<double> score(P);
  std::vector<EdgeId> comm_edges;
  std::vector<double> until_of(P);
  std::vector<ProcId> eligible;
  eligible.reserve(P);
  std::vector<ProcId> sel;
  sel.reserve(P);
  std::vector<Timeline::FreeProc> avail_scratch;
  Timeline::Sweep sweep(timeline);
  std::vector<double> latest_free;  // no-backfill probe instants
  obs::ShortlistRecorder shortlist;
  // Candidate buffers reused across placements (their proc vectors keep
  // their capacity; the per-task reset is finish = kInf).
  Candidate best;
  Candidate second;
  Candidate cand;
  std::vector<Candidate> shadows;
  std::vector<char> is_parent(n, 0);
  ReplayStep scratch;  // the scanned step when no record is kept
  scratch.pset = ProcessorSet(P);

  // Commits one placement (Alg. 2 steps 15-18) — scanned or replayed — to
  // the chart, the schedule and G', flushes its telemetry and provenance,
  // and releases its successors.
  auto commit = [&](const ReplayStep& s) {
    const TaskId t = s.task;
    timeline.occupy(s.pset, s.busy_from, s.finish);
    const auto it =
        std::lower_bound(finish_events.begin(), finish_events.end(), s.finish);
    if (it == finish_events.end() || *it != s.finish)
      finish_events.insert(it, s.finish);
    res.schedule.place(t, s.busy_from, s.start, s.finish, s.pset);
    placed[t] = s.procs;
    ft[t] = s.finish;
    done[t] = 1;
    res.dag.set_vertex_time(t, et[t]);
    for (const auto& [e, w] : s.edge_times) res.dag.set_edge_time(e, w);
    for (TaskId pd : s.pseudo_preds) res.dag.add_pseudo_edge(pd, t);
    if (met != nullptr) {
      *cells.tasks_placed += 1.0;
      *cells.holes_scanned += static_cast<double>(s.holes_probed);
      if (s.backfilled) *cells.backfill_hits += 1.0;
      if (s.pruned) *cells.scan_cutoffs += 1.0;
      *(s.subset == 0 ? cells.locality_wins : cells.horizon_wins) += 1.0;
      *cells.local_bytes += s.local_bytes;
      *cells.remote_bytes += s.remote_bytes;
    }
    if (obs::wants_events(obs)) {
      // A record made without a sink carries no provenance; one stream
      // keeps one ObsContext, so a traced replay never meets one.
      assert(s.decision != nullptr);
      obs::PlacementDecision d = *s.decision;
      d.prio = prio[t];  // bottom levels move with every task's np
      obs->sink->emit(obs::decision_event(d));
    }
    for (EdgeId e : g.out_edges(t))
      if (--waiting[g.edge(e).dst] == 0) ready.push_back(g.edge(e).dst);
  };

  for (std::size_t scheduled = n_frozen; scheduled < n; ++scheduled) {
    // Highest-priority ready task.
    std::size_t pick = 0;
    for (std::size_t i = 1; i < ready.size(); ++i) {
      if (prio[ready[i]] > prio[ready[pick]] ||
          (prio[ready[i]] == prio[ready[pick]] && ready[i] < ready[pick]))
        pick = i;
    }
    const TaskId tp = ready[pick];
    ready[pick] = ready.back();
    ready.pop_back();

    const std::size_t need = np[tp];
    const double exec = et[tp];

    // Replay fast path: the live pick and its processor count match the
    // recorded step, so the whole placement — timings, processors, G'
    // weights, pseudo-edges, telemetry, provenance — is provably the one a
    // full scan would produce. Commit it directly; the step is shared into
    // the new record by pointer (one refcount bump, no deep copy).
    if (replay_live) {
      const ReplayStep* rs =
          ri < rec->steps.size() ? rec->steps[ri].get() : nullptr;
      if (rs != nullptr && rs->task == tp && rs->np == need) {
        if (evals_cell != nullptr) *evals_cell += rs->cost_evals;
        commit(*rs);
        newrec.steps.push_back(rec->steps[ri++]);
        ++replayed_tasks;
        continue;
      }
      replay_live = false;  // first divergence: scan the dirty remainder
    }
    const double evals_before = evals_cell != nullptr ? *evals_cell : 0.0;

    // Per-placement telemetry, accumulated in plain locals and flushed
    // once at commit so the obs-off path never touches the registry.
    std::size_t holes_probed = 0;
    bool scan_pruned = false;

    // Ready time and per-processor locality score (bytes of input resident).
    double est0 = fixed != nullptr ? fixed->not_before : 0.0;
    for (EdgeId e : g.in_edges(tp)) est0 = std::max(est0, ft[g.edge(e).src]);
    std::fill(score.begin(), score.end(), 0.0);
    // In-edges that actually carry data (the only ones that cost anything).
    comm_edges.clear();
    if (!opt.comm_blind) {
      for (EdgeId e : g.in_edges(tp))
        if (g.edge(e).volume_bytes > 0.0) comm_edges.push_back(e);
    }
    if (opt.locality) {
      for (EdgeId e : comm_edges) {
        const Edge& ed = g.edge(e);
        const double share =
            ed.volume_bytes / static_cast<double>(placed[ed.src].size());
        for (ProcId q : placed[ed.src]) score[q] += share;
      }
    }

    // Redistribution durations of each comm edge onto a given subset.
    // Candidate subsets repeat heavily across probe instants, so small
    // keyed caches (one per subset flavour: locality-first, horizon-first,
    // shadow, commit) remove most remote_fraction work. Invalidate for
    // this task.
    for (auto& c : durs_cache) c.procs.clear();
    auto durs_for = [&](const std::vector<ProcId>& procs,
                        int slot) -> const std::vector<double>& {
      DursCache& c = durs_cache[slot];
      if (procs == c.procs) return c.durs;
      // Span at the cache-miss level only: a per-remote_fraction span
      // would dominate the hole scan it is meant to measure.
      LOCMPS_SPAN(obs, "locbs.redist_durs");
      c.procs = procs;
      c.durs.resize(comm_edges.size());
      c.rvol.resize(comm_edges.size());
      for (std::size_t k = 0; k < comm_edges.size(); ++k) {
        const Edge& ed = g.edge(comm_edges[k]);
        const double rv =
            opt.locality
                ? ed.volume_bytes * remote_fraction(placed[ed.src], procs)
                : ed.volume_bytes;
        c.rvol[k] = rv;
        c.durs[k] =
            comm.transfer_duration(rv, placed[ed.src].size(), need);
      }
      return c.durs;
    };

    // Timing of a chosen processor subset: start / finish / busy-from.
    auto time_on = [&](double tau, const std::vector<ProcId>& procs, int slot,
                       Candidate& c) {
      c.procs = procs;
      c.subset = slot;
      if (opt.comm_blind || comm_edges.empty()) {
        c.start = std::max(tau, est0);
        c.busy_from = c.start;
        c.resource_induced = later_than(tau, est0);
        c.touch = c.start;
        c.finish = c.start + exec;
        return;
      }
      const std::vector<double>& durs = durs_for(procs, slot);
      double arrive = est0;  // latest input arrival (overlap mode)
      double comm_total = 0.0;
      for (std::size_t k = 0; k < comm_edges.size(); ++k) {
        comm_total += durs[k];
        arrive =
            std::max(arrive, ft[g.edge(comm_edges[k]).src] + durs[k]);
      }
      if (overlap) {
        c.start = std::max(tau, arrive);
        c.busy_from = c.start;
        c.resource_induced = later_than(tau, arrive);
        c.touch = c.start;
      } else {
        // Transfers occupy the destination processors and serialize.
        const double base = std::max(tau, est0);
        c.start = base + comm_total;
        c.busy_from = base;
        c.resource_induced = later_than(tau, est0);
        c.touch = base;
      }
      c.finish = c.start + exec;
    };

    best.finish = kInf;

    // Decision provenance: record the scored shortlist and track the
    // distinct runner-up (different subset or start). The runner-up feeds
    // both the decision record's margin and the perturb_task hook, which
    // must work even without an attached sink.
    second.finish = kInf;
    const bool want_prov = obs::wants_events(obs);
    const bool want_second = want_prov || tp == opt.perturb_task;
    std::uint64_t cands_scored = 0;
    shortlist.clear();

    // Two candidates are the same decision if they commit the same
    // processors at the same instant; only a distinct one qualifies as
    // the runner-up (otherwise the margin degenerates to 0).
    auto distinct_cand = [](const Candidate& a, const Candidate& b) {
      return a.procs != b.procs || !about(a.start, b.start);
    };

    // Shadow alternatives (anti-locality subsets, see probe()): scored
    // for the shortlist and runner-up only, never eligible to win —
    // attaching a sink or arming the perturb hook must not change the
    // committed schedule. Kept sorted ascending by finish, bounded.
    constexpr std::size_t kMaxShadows = 8;
    shadows.clear();
    auto offer_shadow = [&](Candidate&& c) {
      auto it = std::upper_bound(
          shadows.begin(), shadows.end(), c,
          [](const Candidate& x, const Candidate& y) {
            return x.finish < y.finish;
          });
      shadows.insert(it, std::move(c));
      if (shadows.size() > kMaxShadows) shadows.pop_back();
    };

    // Provenance record of one feasible candidate.
    auto record_cand = [&](const Candidate& c, double tau) {
      ++cands_scored;
      if (!want_prov) return;
      obs::ProvCandidate pc;
      pc.tau = tau;
      pc.subset = c.subset;
      pc.start = c.start;
      pc.finish = c.finish;
      pc.busy_from = c.busy_from;
      // time_on has just filled the candidate's cache slot for c.procs
      // (it skips the cache only when no in-edge carries data).
      if (!comm_edges.empty()) {
        assert(durs_cache[c.subset].procs == c.procs);
        for (double rv : durs_cache[c.subset].rvol) pc.remote_bytes += rv;
      }
      for (ProcId q : c.procs) pc.locality_score += score[q];
      pc.procs = c.procs;
      shortlist.offer(std::move(pc));
    };

    // Lower bounds on data arrival / total transfer time over *any*
    // processor subset of size `need`: at best min(s, need) of a parent's s
    // blocks-per-period can stay local (lcm-period argument), so at least
    // the remaining fraction must cross the network. Used to prune the
    // hole scan.
    double arrive_lb = est0;
    double comm_lb = 0.0;
    for (std::size_t k = 0; k < comm_edges.size(); ++k) {
      const Edge& ed = g.edge(comm_edges[k]);
      const std::size_t s = placed[ed.src].size();
      double frac_min = 1.0;
      if (opt.locality) {
        const std::size_t gg = std::gcd(s, need);
        const double L =
            static_cast<double>(s / gg) * static_cast<double>(need);
        frac_min = 1.0 - static_cast<double>(std::min(s, need)) / L;
      }
      const double dur_min =
          comm.transfer_duration(ed.volume_bytes * frac_min, s, need);
      arrive_lb = std::max(arrive_lb, ft[ed.src] + dur_min);
      comm_lb += dur_min;
    }
    // Earliest conceivable finish when acquiring processors at time tau.
    auto finish_lb = [&](double tau) {
      return overlap ? std::max(tau, arrive_lb) + exec
                     : std::max(tau, est0) + comm_lb + exec;
    };

    // Scans one probe instant: tries two subsets of the processors idle at
    // tau — the locality-maximal one (Alg. 2 step 9) and the widest-horizon
    // one (whose windows survive redistribution-delayed starts) — and keeps
    // whichever yields the earliest feasible finish.
    auto probe = [&](double tau, const std::vector<Timeline::FreeProc>& avail) {
      ++holes_probed;
      std::fill(until_of.begin(), until_of.end(), -1.0);
      eligible.clear();
      for (const auto& f : avail) {
        // Masked-out (failed) processors take no new work.
        if (fixed != nullptr && !fixed->usable(f.proc)) continue;
        // Necessary condition: the processor must stay free at least until
        // tau + exec (the busy window can only end later than that).
        if (f.until >= tau + exec) {
          until_of[f.proc] = f.until;
          eligible.push_back(f.proc);
        }
      }
      if (eligible.size() < need) return;
      auto feasible = [&](const Candidate& c) {
        for (ProcId q : c.procs)
          if (until_of[q] < c.finish) return false;
        return true;
      };
      auto consider = [&](std::vector<ProcId>& procs, int slot) {
        std::sort(procs.begin(), procs.end());
        time_on(tau, procs, slot, cand);
        if (!feasible(cand)) return;
        if (want_prov || want_second) record_cand(cand, tau);
        if (cand.finish < best.finish) {
          if (want_second && best.finish < kInf && distinct_cand(best, cand))
            std::swap(second, best);
          std::swap(best, cand);
        } else if (want_second && cand.finish < second.finish &&
                   distinct_cand(cand, best)) {
          std::swap(second, cand);
        }
      };
      // Subset generators, by slot: the `need` eligible processors that
      // rank first by a (primary, secondary) key pair, larger first, ties
      // to lower ids. Each key is a compile-time lambda, so the comparator
      // inlines into nth_element.
      //   0 locality-first: most resident input, then longest idle window
      //   1 horizon-first:  longest idle window, then most resident input
      //   2 shadow:         least resident input, then longest idle window
      const auto resident = [&](ProcId q) { return score[q]; };
      const auto window = [&](ProcId q) { return until_of[q]; };
      const auto foreign = [&](ProcId q) { return -score[q]; };
      auto first_need = [&](auto primary, auto secondary)
          -> std::vector<ProcId>& {
        sel.assign(eligible.begin(), eligible.end());
        std::nth_element(sel.begin(), sel.begin() + need - 1, sel.end(),
                         [&](ProcId a, ProcId b) {
                           if (primary(a) > primary(b)) return true;
                           if (primary(b) > primary(a)) return false;
                           if (secondary(a) > secondary(b)) return true;
                           if (secondary(b) > secondary(a)) return false;
                           return a < b;
                         });
        sel.resize(need);
        return sel;
      };
      consider(first_need(resident, window), 0);
      consider(first_need(window, resident), 1);
      // The shadow shows what the locality preference bought, and gives the
      // runner-up fold a genuinely different processor set when both real
      // subsets coincide (common once every eligible window is unbounded,
      // where the two orders collapse to the same tie-break). Never allowed
      // to win: the committed schedule must be identical whether or not a
      // sink or the perturb hook asked for it.
      if (want_second && eligible.size() > need) {
        std::vector<ProcId>& procs = first_need(foreign, window);
        std::sort(procs.begin(), procs.end());
        Candidate c;
        time_on(tau, procs, 2, c);
        if (feasible(c)) {
          record_cand(c, tau);
          offer_shadow(std::move(c));
        }
      }
    };

    // When a runner-up is wanted, the scan keeps probing a few instants
    // past the prune point: finish_lb guarantees those candidates cannot
    // beat `best` (the commit is untouched), but they populate the
    // shortlist and give the margin / perturb hook a distinct alternative
    // that the pruned scan would never see.
    constexpr std::size_t kProvExtension = 8;
    std::size_t extension = 0;

    LOCMPS_SPAN(obs, "locbs.place");
    {
      LOCMPS_SPAN(obs, "locbs.hole_scan");
      // Probe instants ascend. Backfill probes est0, then every later
      // finish event, walking the event list in place (it is only mutated
      // at commit, after the scan, so the iterator stays valid); the sweep
      // cursor answers each availability query in amortized O(1) per
      // processor. The no-backfill variant (Fig 6) probes only the
      // processors' latest free times and ignores holes earlier in the
      // chart: a processor is available from its latest free time on.
      std::vector<double>::const_iterator next_tau, end_tau;
      double tau = est0;
      if (opt.backfill) {
        next_tau =
            std::upper_bound(finish_events.begin(), finish_events.end(), est0);
        end_tau = finish_events.end();
      } else {
        latest_free.clear();
        for (ProcId q = 0; q < P; ++q)
          latest_free.push_back(std::max(est0, timeline.latest_free_time(q)));
        std::sort(latest_free.begin(), latest_free.end(), total_less);
        latest_free.erase(std::unique(latest_free.begin(), latest_free.end()),
                          latest_free.end());
        tau = latest_free.front();
        next_tau = latest_free.begin() + 1;
        end_tau = latest_free.end();
      }
      for (;;) {
        if (opt.backfill) {
          sweep.available_at(tau, avail_scratch);
        } else {
          avail_scratch.clear();
          for (ProcId q = 0; q < P; ++q)
            if (timeline.latest_free_time(q) <= tau)
              avail_scratch.push_back(Timeline::FreeProc{q, kForever});
        }
        probe(tau, avail_scratch);
        if (next_tau == end_tau) break;
        // Monotone pruning: any later hole acquires processors at
        // >= *next_tau, and no subset beats the arrival lower bound.
        if (best.finish < kInf && best.finish <= finish_lb(*next_tau)) {
          scan_pruned = true;
          if (!want_second || second.finish < kInf ||
              ++extension > kProvExtension)
            break;
        }
        tau = *next_tau++;
      }
    }

    if (!(best.finish < kInf))
      throw std::logic_error("locbs: no feasible slot found");

    // Fold the shadow alternatives into the runner-up: the earliest-
    // finishing one that is distinct from and no earlier than the winner
    // (a shadow must never flip the margin negative).
    for (const Candidate& s : shadows) {
      if (s.finish < best.finish || !distinct_cand(s, best)) continue;
      if (s.finish < second.finish) second = s;
      break;
    }

    // Margin over the distinct runner-up. Measured before any perturbation:
    // it describes the scan, not the commit.
    const double margin =
        second.finish < kInf ? second.finish - best.finish : -1.0;
    // Seeded-divergence hook: adopt the runner-up for this one task so a
    // controlled placement flip exists for rundiff attribution tests.
    const bool perturb_this = tp == opt.perturb_task && second.finish < kInf;
    if (perturb_this) std::swap(best, second);

    // Chart frontier before this placement: a task that acquires its
    // processors strictly earlier was backfilled into a hole.
    const double chart_end = finish_events.empty() ? 0.0 : finish_events.back();

    // Record the winner as a step and commit it. The step is a fresh,
    // shareable record on the incremental path and the reused scratch step
    // otherwise.
    LOCMPS_SPAN(obs, "locbs.commit");
    std::shared_ptr<ReplayStep> fresh;
    if (incr != nullptr) {
      fresh = std::make_shared<ReplayStep>();
      fresh->pset = ProcessorSet(P);
    }
    ReplayStep& step = fresh != nullptr ? *fresh : scratch;
    step.task = tp;
    step.np = need;
    step.busy_from = best.busy_from;
    step.start = best.start;
    step.finish = best.finish;
    step.procs = best.procs;
    step.pset.clear();
    for (ProcId q : best.procs) step.pset.insert(q);
    step.holes_probed = static_cast<std::uint32_t>(holes_probed);
    step.subset = static_cast<std::uint8_t>(best.subset);
    step.pruned = scan_pruned;
    step.backfilled = later_than(chart_end, best.busy_from);

    // Realized G' weights of the in-edges, and the realized redistribution
    // split: bytes that stay on shared block-cyclic-aligned processors vs.
    // bytes that cross the network (Section III-B locality saving).
    step.edge_times.clear();
    step.local_bytes = 0.0;
    step.remote_bytes = 0.0;
    if (!comm_edges.empty()) {
      const std::vector<double>& durs = durs_for(best.procs, 3);
      const std::vector<double>& rvol = durs_cache[3].rvol;
      for (std::size_t k = 0; k < comm_edges.size(); ++k) {
        step.edge_times.emplace_back(comm_edges[k], durs[k]);
        step.remote_bytes += rvol[k];
        step.local_bytes += g.edge(comm_edges[k]).volume_bytes - rvol[k];
      }
    }
    step.cost_evals = evals_cell != nullptr ? *evals_cell - evals_before : 0.0;

    // Pseudo-edges for resource-induced waiting (Alg. 2 steps 17-18): link
    // every placed task finishing exactly when we could finally proceed and
    // sharing a processor with us.
    step.pseudo_preds.clear();
    if (best.resource_induced) {
      // Direct parents already impose the dependence; skip them. The
      // shared mask is cleared entry-wise below, not reallocated.
      for (EdgeId e : g.in_edges(tp)) is_parent[g.edge(e).src] = 1;
      for (TaskId ti = 0; ti < n; ++ti) {
        if (!done[ti] || is_parent[ti]) continue;
        if (about(ft[ti], best.touch) &&
            res.schedule.at(ti).procs.intersection_count(step.pset) > 0)
          step.pseudo_preds.push_back(ti);
      }
      for (EdgeId e : g.in_edges(tp)) is_parent[g.edge(e).src] = 0;
    }

    if (want_prov) {
      if (step.decision == nullptr)
        step.decision = std::make_unique<obs::PlacementDecision>();
      obs::PlacementDecision& d = *step.decision;
      d.task = tp;
      d.np = need;
      d.est = est0;
      d.start = best.start;
      d.finish = best.finish;
      d.busy_from = best.busy_from;
      d.backfill_branch = opt.backfill;
      d.locality_branch = opt.locality;
      d.comm_blind = opt.comm_blind;
      d.backfilled = step.backfilled;
      d.pruned = scan_pruned;
      d.perturbed = perturb_this;
      d.holes_probed = holes_probed;
      d.candidates_scored = cands_scored;
      d.margin = margin;
      d.local_bytes = step.local_bytes;
      d.remote_bytes = step.remote_bytes;
      obs::ProvCandidate win;
      win.tau = best.touch;
      win.subset = best.subset;
      win.start = best.start;
      win.finish = best.finish;
      win.busy_from = best.busy_from;
      win.remote_bytes = step.remote_bytes;
      for (ProcId q : best.procs) win.locality_score += score[q];
      win.procs = best.procs;
      d.winner = shortlist.ensure(win);
      d.shortlist = shortlist.entries();
    }

    commit(step);
    if (fresh != nullptr) newrec.steps.push_back(std::move(fresh));
  }

  if (incr != nullptr) {
    // Stream bookkeeping: dirty vs replayed split of this evaluation, and
    // whether it had any replay base at all. The incr.* family is
    // digest-excluded (the from-scratch oracle produces none).
    if (met != nullptr) {
      met->add("incr.dirty_tasks",
               static_cast<double>(n - n_frozen - replayed_tasks));
      met->add("incr.replayed_tasks", static_cast<double>(replayed_tasks));
      if (replayed_tasks == 0) met->add("incr.full_rebuilds");
    }
    incr->remember(std::move(newrec));
  }

  res.makespan = res.schedule.makespan();
  return res;
}

}  // namespace locmps
