#pragma once
/// \file incremental.hpp
/// Incremental-replanning state shared by the LoCBS evaluations of one
/// refinement stream: the replay records of recent evaluations
/// (docs/incremental.md).
///
/// The LoC-MPS refinement loop evaluates hundreds of allocations that
/// differ from an earlier one by a single widened task. LoCBS is a
/// deterministic list scheduler, so as long as the priority argmax picks
/// the same task with the same processor count as a recorded evaluation,
/// the whole placement — timeline state, finish events, realized G'
/// weights, pseudo-edges, even the per-placement counters — is provably
/// identical, and the recorded step can be replayed without re-scanning a
/// single hole. The first divergent pick marks the start of the dirty
/// region; from there the scan runs in full. Every pass still computes
/// its priorities in full and runs every argmax itself: replay skips only
/// the hole scans of the verified prefix. Scanned and replayed placements
/// are committed by the same code from a ReplayStep, so counters, events
/// and spans see one path whether or not an instrument is attached. The
/// from-scratch path (LocMPSOptions::incremental = false) never consults
/// this context and serves as the differential-equivalence oracle
/// (tests/test_incremental).
///
/// One IncrementalContext serves one evaluation stream under one
/// ObsContext (one LoC-MPS run owns one), so no locking is needed and
/// replay decisions stay bit-deterministic.

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "cluster/processor_set.hpp"
#include "graph/task_graph.hpp"
#include "obs/provenance.hpp"
#include "schedule/schedule_dag.hpp"
#include "schedulers/scheduler.hpp"

namespace locmps {

/// One placement of a LoCBS pass, as the hole scan chose it: everything
/// the commit writes (schedule, timeline, G' weights, pseudo-edges) plus
/// the per-placement telemetry and provenance the scan produced, so a
/// replayed step leaves counters and events bit-identical to a re-scan.
/// Steps are immutable once recorded and shared between successive
/// records by pointer, so replaying a long prefix costs one refcount bump
/// per step instead of a deep copy.
struct ReplayStep {
  TaskId task = kNoTask;
  std::size_t np = 0;  ///< processor count at record time (validity key)
  double busy_from = 0.0;
  double start = 0.0;
  double finish = 0.0;
  std::vector<ProcId> procs;  ///< ascending
  ProcessorSet pset;
  // Realized G' weights of this task's in-edges, and the pseudo-edges the
  // commit added (predecessor side; the destination is `task`).
  std::vector<std::pair<EdgeId, double>> edge_times;
  std::vector<TaskId> pseudo_preds;
  // Per-placement telemetry the scan would have produced.
  std::uint32_t holes_probed = 0;
  std::uint8_t subset = 0;  ///< 0 = locality-first win, 1 = horizon-first
  bool pruned = false;
  bool backfilled = false;
  double local_bytes = 0.0;
  double remote_bytes = 0.0;
  double cost_evals = 0.0;  ///< comm.cost_evals delta of this placement
  /// Decision provenance, recorded only when an event sink is attached
  /// (null otherwise, so untraced steps stay small). Its `prio` is left
  /// unset: bottom levels depend on every task's np, so the commit takes
  /// the priority from the live pass.
  std::unique_ptr<obs::PlacementDecision> decision;
};

/// A full recorded LoCBS evaluation: the allocation it ran under and its
/// placement steps in commit order (frozen-prefix tasks excluded — the
/// prefix is constant across a stream).
struct ReplayRecord {
  Allocation np;
  std::vector<std::shared_ptr<const ReplayStep>> steps;
};

/// Replay records of one evaluation stream. Not thread-safe by design;
/// see the file comment.
class IncrementalContext {
 public:
  /// Recent evaluations kept as replay bases. Records share their step
  /// storage, so keeping a few extra bases is cheap and lets a look-ahead
  /// walk replay against the incumbent's adopted evaluation as well as its
  /// own previous step.
  static constexpr std::size_t kMaxRecords = 8;

  /// The record with the longest np-compatible step prefix for \p np, or
  /// null when no record matches even its first step. The estimate only
  /// checks processor counts in recorded commit order; the actual replay
  /// additionally verifies every priority-argmax pick, so this is just a
  /// ranking heuristic — correctness never depends on it.
  const ReplayRecord* pick_record(const Allocation& np) const {
    const ReplayRecord* best = nullptr;
    std::size_t best_len = 0;
    for (const ReplayRecord& r : records_) {
      std::size_t len = 0;
      while (len < r.steps.size() &&
             np[r.steps[len]->task] == r.steps[len]->np)
        ++len;
      if (len > best_len) {
        best_len = len;
        best = &r;
      }
    }
    return best;
  }

  /// Remembers \p rec as the most recent evaluation (LRU, capped).
  void remember(ReplayRecord&& rec) {
    records_.insert(records_.begin(), std::move(rec));
    if (records_.size() > kMaxRecords) records_.pop_back();
  }

 private:
  std::vector<ReplayRecord> records_;
};

}  // namespace locmps
