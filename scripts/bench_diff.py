#!/usr/bin/env python3
"""Compare two BENCH_*.json telemetry files and flag regressions.

Usage:
    scripts/bench_diff.py BASELINE.json CANDIDATE.json [options]

Options:
    --threshold PCT   relative change (percent) beyond which a metric
                      counts as a regression (default 3.0)
    --metric NAME     statistic to compare: median (default) or mean
    --sched-threshold PCT
                      separate threshold for scheduling time, which is
                      wall-clock and noisier (default 25.0)
    --quiet           print only regressions and the summary line

Semantics: results are joined on (panel label, scheme, procs). For each
joined row, `makespan` going up or `relative` (performance relative to the
reference scheme: higher is better) going down beyond the threshold is a
regression; the comparison is additionally suppressed when the candidate
value still lies inside the baseline's order-statistic confidence interval
(a shift indistinguishable from sampling noise is not actionable).
`sched_seconds` regressions use --sched-threshold. Exits 1 when any
regression is found, 2 on malformed or unreadable input, 3 when the
baseline file does not exist (commit one first), else 0.

Auto-explanation: with --explain-inspect and --explain-baseline-trace
set, a tripped gate additionally re-runs the pinned fig06 workload
through `locmps-inspect --obs-out`, diffs the fresh decision trace
against the committed baseline trace, and writes the ranked
attribution artifact (attribution.json) into --explain-out — so a
failed gate ships with the decisions that caused it, not just a
number (docs/observability.md, "Provenance & run diffing").
Explanation failures print a WARNING and never mask the exit code.

Speedup gates: `--speedup-gate 'BASE_LABEL::FAST_LABEL::METRIC::FACTOR'`
(repeatable) asserts an intra-document ratio on the CANDIDATE file: for
every (scheme, procs) row present in both named panels, the gate
computes BASE / FAST of the chosen metric's statistic and requires the
ratio at the largest joined processor count to be >= FACTOR. Because
both sides come from the same run on the same machine, the gate is
machine-independent — it ratchets an algorithmic speedup (e.g. the
incremental-replanning panel of fig10 against its from-scratch
companion), not absolute wall-clock. A failed gate exits 1 like a
regression.

Phase-budget profiles: when both inputs are BENCH_*_profile.json
documents (`"kind": "profile"`, written by a bench binary's
`--profile-out`), rows are span paths instead. `wall_s` and `cpu_s` use
--sched-threshold (wall-clock noise) with the same CI suppression;
`alloc_bytes` and `allocs` are deterministic scalars compared at
--threshold with no suppression (they are only compared when both runs
had allocation tracking compiled in). A changed span `count` is
reported as a warning — counts are deterministic, so a change means the
planner's control flow changed. Mixing a profile document with a
telemetry document is a usage error (exit 2).

Machine fingerprints: every document carries a `machine` object (nproc,
CPU model, build type, LOCMPS_PROFILE). When the two sides' fingerprints
differ, or only one side has one, a WARNING says that wall-clock deltas
may not be comparable; it never changes the exit code.
"""

import argparse
import json
import os
import subprocess
import sys

# Workload pinned to the committed fig06 baseline trace
# (bench/baselines/fig06_decision_trace.jsonl): regenerate the trace with
# these exact locmps-inspect arguments when refreshing the baseline.
DEFAULT_EXPLAIN_WORKLOAD = "--seed 20060901 --ccr 0.5 --procs 16"


def auto_explain(args):
    """On a tripped gate: rerun the pinned workload, diff its decision
    trace against the committed baseline trace, and drop the ranked
    attribution artifact next to the gate output. Never raises and never
    changes the caller's exit code."""
    if not getattr(args, "explain_inspect", None) or \
            not getattr(args, "explain_baseline_trace", None):
        return
    try:
        outdir = args.explain_out or "."
        os.makedirs(outdir, exist_ok=True)
        cand_trace = os.path.join(outdir, "candidate_trace.jsonl")
        attribution = os.path.join(outdir, "attribution.json")
        workload = (args.explain_workload or DEFAULT_EXPLAIN_WORKLOAD).split()
        run = subprocess.run(
            [args.explain_inspect, *workload, "--quiet",
             "--obs-out", cand_trace],
            capture_output=True, text=True, timeout=600)
        if run.returncode != 0:
            print("bench_diff: WARNING: auto-explanation trace run failed "
                  f"(exit {run.returncode}): {run.stderr.strip()}",
                  file=sys.stderr)
            return
        run = subprocess.run(
            [args.explain_inspect, *workload,
             "--diff", args.explain_baseline_trace, cand_trace,
             "--diff-json", attribution],
            capture_output=True, text=True, timeout=600)
        if run.returncode != 0:
            print("bench_diff: WARNING: auto-explanation diff failed "
                  f"(exit {run.returncode}): {run.stderr.strip()}",
                  file=sys.stderr)
            return
        print("bench_diff: gate tripped; decision attribution written to "
              f"{attribution}")
        if run.stdout:
            sys.stdout.write(run.stdout)
    except Exception as e:  # never mask the gate's own exit code
        print(f"bench_diff: WARNING: auto-explanation failed: {e}",
              file=sys.stderr)


def load(path, role="candidate"):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except FileNotFoundError:
        if role == "baseline":
            print(f"bench_diff: baseline {path} does not exist.\n"
                  f"  Run the bench with `--bench-out {path}` and commit "
                  "the result to establish a baseline.", file=sys.stderr)
            sys.exit(3)
        print(f"bench_diff: cannot read {path}: file not found",
              file=sys.stderr)
        sys.exit(2)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_diff: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def rows(doc):
    """Flattens a telemetry document to {(panel, scheme, procs): result}."""
    out = {}
    for panel in doc.get("panels", []):
        for r in panel.get("results", []):
            try:
                out[(panel.get("label", ""), r["scheme"], r["procs"])] = r
            except (KeyError, TypeError):
                print("bench_diff: malformed result row (missing "
                      f"scheme/procs) in panel {panel.get('label', '?')!r}",
                      file=sys.stderr)
                sys.exit(2)
    return out


def phase_rows(doc):
    """Flattens a profile document to {span path: phase row}."""
    out = {}
    for ph in doc.get("phases", []):
        try:
            out[ph["path"]] = ph
        except (KeyError, TypeError):
            print("bench_diff: malformed phase row (missing path)",
                  file=sys.stderr)
            sys.exit(2)
    return out


def pct_change(base, cand):
    if base == 0:
        return 0.0 if cand == 0 else float("inf")
    return 100.0 * (cand - base) / base


def inside_ci(value, stat):
    # A stat without a confidence interval cannot justify suppression.
    if "ci_lo" not in stat or "ci_hi" not in stat:
        return False
    return stat["ci_lo"] <= value <= stat["ci_hi"]


def check_speedup_gates(cand_doc, specs, stat):
    """Intra-document speedup ratchets on the candidate file. Returns the
    list of failure lines (empty when every gate holds); exits 2 on a
    malformed spec or a gate that matches no rows."""
    failures = []
    cand = rows(cand_doc)
    for spec in specs:
        parts = spec.split("::")
        if len(parts) != 4:
            print(f"bench_diff: malformed --speedup-gate {spec!r} "
                  "(want BASE_LABEL::FAST_LABEL::METRIC::FACTOR)",
                  file=sys.stderr)
            sys.exit(2)
        base_label, fast_label, metric, factor_s = parts
        try:
            factor = float(factor_s)
        except ValueError:
            print(f"bench_diff: bad factor {factor_s!r} in --speedup-gate",
                  file=sys.stderr)
            sys.exit(2)
        base_rows = {(s, p): r for (lbl, s, p), r in cand.items()
                     if lbl == base_label}
        fast_rows = {(s, p): r for (lbl, s, p), r in cand.items()
                     if lbl == fast_label}
        joined = sorted(set(base_rows) & set(fast_rows))
        if not joined:
            print(f"bench_diff: --speedup-gate {spec!r} matches no "
                  f"(scheme, procs) rows shared by panels "
                  f"{base_label!r} and {fast_label!r}", file=sys.stderr)
            sys.exit(2)
        largest = max(p for (_, p) in joined)
        for key in joined:
            b, f = base_rows[key], fast_rows[key]
            if metric not in b or metric not in f:
                print(f"bench_diff: metric {metric!r} missing from a "
                      f"--speedup-gate row {key}", file=sys.stderr)
                sys.exit(2)
            try:
                bval, fval = b[metric][stat], f[metric][stat]
            except (KeyError, TypeError):
                print(f"bench_diff: {metric} in {key} lacks the "
                      f"{stat!r} statistic", file=sys.stderr)
                sys.exit(2)
            ratio = bval / fval if fval > 0 else float("inf")
            gated = key[1] == largest
            line = (f"{base_label!r} / {fast_label!r} / {key[0]} / "
                    f"P={key[1]} / {metric}: {bval:.6g} / {fval:.6g} = "
                    f"{ratio:.2f}x (need >= {factor}x"
                    f"{' at largest P' if not gated else ''})")
            if gated and ratio < factor:
                failures.append(line)
            else:
                print(f"  {'gate   ' if gated else 'info   '}{line}")
    return failures


def warn_machine(base_doc, cand_doc):
    """Wall-clock numbers only compare between runs on one machine and
    build: warn when the two documents' `machine` fingerprints differ
    (or one lacks it). Never changes the exit code."""
    base, cand = base_doc.get("machine"), cand_doc.get("machine")
    if base is None or cand is None:
        if base is not None or cand is not None:
            side = "baseline" if base is None else "candidate"
            print(f"bench_diff: WARNING: the {side} has no machine "
                  "fingerprint; wall-clock deltas may not be comparable")
        return
    changed = [f"{k} {base.get(k)!r} vs {cand.get(k)!r}"
               for k in sorted(set(base) | set(cand))
               if base.get(k) != cand.get(k)]
    if changed:
        print("bench_diff: WARNING: machine fingerprints differ ("
              + "; ".join(changed)
              + "); wall-clock deltas may not be comparable")


def diff_profiles(base_doc, cand_doc, args):
    """Compares two phase-budget profile documents and exits."""
    base, cand = phase_rows(base_doc), phase_rows(cand_doc)
    if not base or not cand:
        print("bench_diff: no phases in one of the inputs", file=sys.stderr)
        sys.exit(2)

    for field in ("scheme", "tasks", "procs"):
        if base_doc.get(field) != cand_doc.get(field):
            print(f"bench_diff: WARNING: {field} differs (baseline "
                  f"{base_doc.get(field)}, candidate "
                  f"{cand_doc.get(field)}); deltas may not be comparable")

    alloc_ok = (base_doc.get("alloc_tracking", False)
                and cand_doc.get("alloc_tracking", False))
    if not alloc_ok:
        print("bench_diff: allocation tracking off in at least one run; "
              "skipping alloc_bytes/allocs comparisons")

    # (metric key, is stat dict, threshold). Wall/CPU are wall-clock noisy
    # -> --sched-threshold + CI suppression; allocation columns are
    # deterministic -> the tight --threshold, no suppression.
    checks = [
        ("wall_s", True, args.sched_threshold),
        ("cpu_s", True, args.sched_threshold),
    ]
    if alloc_ok:
        checks += [
            ("alloc_bytes", False, args.threshold),
            ("allocs", False, args.threshold),
        ]
    regressions, improvements, warnings, compared = [], [], [], 0
    for path in sorted(set(base) & set(cand)):
        b, c = base[path], cand[path]
        if b.get("count") != c.get("count"):
            warnings.append(
                f"{path}: span count changed {b.get('count')} -> "
                f"{c.get('count')} (planner control flow changed)")
        for metric, is_stat, threshold in checks:
            if metric not in b or metric not in c:
                continue
            if is_stat:
                try:
                    bval = b[metric][args.metric]
                    cval = c[metric][args.metric]
                except (KeyError, TypeError):
                    print(f"bench_diff: {metric} in {path} lacks the "
                          f"{args.metric!r} statistic", file=sys.stderr)
                    sys.exit(2)
                suppressed = inside_ci(cval, b[metric])
            else:
                bval, cval = b[metric], c[metric]
                suppressed = False
            compared += 1
            delta = pct_change(bval, cval)
            line = f"{path} / {metric}: {bval:.6g} -> {cval:.6g} ({delta:+.2f}%)"
            if delta > threshold and not suppressed:
                regressions.append(line)
            elif delta < -threshold:
                improvements.append(line)
            elif not args.quiet:
                print(f"  ok     {line}")

    for line in improvements:
        print(f"  better {line}")
    for line in warnings:
        print(f"  NOTE   {line}")
    for line in regressions:
        print(f"  WORSE  {line}")

    missing = sorted(set(base) - set(cand))
    if missing:
        print(f"bench_diff: WARNING: {len(missing)} baseline span path(s) "
              f"missing from candidate (first: {missing[0]})")

    print(f"bench_diff: {compared} phase comparisons, "
          f"{len(improvements)} improvement(s), "
          f"{len(regressions)} regression(s), {len(warnings)} count "
          f"change(s) (threshold {args.threshold}%/"
          f"{args.sched_threshold}% on {args.metric})")
    if regressions:
        auto_explain(args)
    sys.exit(1 if regressions else 0)


def main():
    ap = argparse.ArgumentParser(
        description="Compare two BENCH_*.json telemetry files.")
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument("--threshold", type=float, default=3.0)
    ap.add_argument("--metric", choices=("median", "mean"), default="median")
    ap.add_argument("--sched-threshold", type=float, default=25.0)
    ap.add_argument("--quiet", action="store_true")
    ap.add_argument("--explain-inspect", metavar="PATH", default=None,
                    help="locmps-inspect binary used to auto-explain a "
                         "tripped gate")
    ap.add_argument("--explain-baseline-trace", metavar="PATH", default=None,
                    help="committed baseline decision trace to diff against")
    ap.add_argument("--explain-out", metavar="DIR", default=None,
                    help="directory for candidate_trace.jsonl and "
                         "attribution.json (default: cwd)")
    ap.add_argument("--explain-workload", metavar="ARGS", default=None,
                    help="locmps-inspect workload arguments "
                         f"(default: {DEFAULT_EXPLAIN_WORKLOAD!r})")
    ap.add_argument("--speedup-gate", action="append", default=[],
                    metavar="BASE_LABEL::FAST_LABEL::METRIC::FACTOR",
                    help="require candidate panel BASE/FAST metric ratio "
                         ">= FACTOR at the largest joined processor count "
                         "(intra-document, machine-independent; "
                         "repeatable)")
    args = ap.parse_args()

    base_doc = load(args.baseline, role="baseline")
    cand_doc = load(args.candidate)

    print(f"baseline : {args.baseline} "
          f"(git {base_doc.get('git_sha', '?')}, "
          f"{base_doc.get('timestamp', '?')})")
    print(f"candidate: {args.candidate} "
          f"(git {cand_doc.get('git_sha', '?')}, "
          f"{cand_doc.get('timestamp', '?')})")
    warn_machine(base_doc, cand_doc)

    base_prof = base_doc.get("kind") == "profile" or "phases" in base_doc
    cand_prof = cand_doc.get("kind") == "profile" or "phases" in cand_doc
    if base_prof != cand_prof:
        print("bench_diff: cannot mix a phase-budget profile with panel "
              "telemetry", file=sys.stderr)
        sys.exit(2)
    if base_prof:
        if args.speedup_gate:
            print("bench_diff: --speedup-gate applies to panel telemetry, "
                  "not phase-budget profiles", file=sys.stderr)
            sys.exit(2)
        diff_profiles(base_doc, cand_doc, args)
        return  # diff_profiles exits

    base, cand = rows(base_doc), rows(cand_doc)
    if not base or not cand:
        print("bench_diff: no results in one of the inputs", file=sys.stderr)
        sys.exit(2)

    if (base_doc.get("graphs"), base_doc.get("full_scale")) != (
            cand_doc.get("graphs"), cand_doc.get("full_scale")):
        print("bench_diff: WARNING: suite sizes differ "
              f"(baseline {base_doc.get('graphs')} graphs, candidate "
              f"{cand_doc.get('graphs')}); deltas may not be comparable")

    # (metric key, direction: +1 = higher is worse, threshold)
    checks = [
        ("makespan", +1, args.threshold),
        ("relative", -1, args.threshold),
        ("sched_seconds", +1, args.sched_threshold),
    ]
    regressions, improvements, compared = [], [], 0
    for key in sorted(set(base) & set(cand)):
        b, c = base[key], cand[key]
        for metric, worse_sign, threshold in checks:
            if metric not in b or metric not in c:
                continue
            bstat, cstat = b[metric], c[metric]
            try:
                bval, cval = bstat[args.metric], cstat[args.metric]
            except (KeyError, TypeError):
                print(f"bench_diff: {metric} in {key} lacks the "
                      f"{args.metric!r} statistic", file=sys.stderr)
                sys.exit(2)
            compared += 1
            delta = pct_change(bval, cval)
            label = f"{key[0]} / {key[1]} / P={key[2]} / {metric}"
            line = (f"{label}: {bval:.6g} -> {cval:.6g} "
                    f"({delta:+.2f}%)")
            if worse_sign * delta > threshold and not inside_ci(cval, bstat):
                regressions.append(line)
            elif worse_sign * delta < -threshold:
                improvements.append(line)
            elif not args.quiet:
                print(f"  ok     {line}")

    gate_failures = check_speedup_gates(cand_doc, args.speedup_gate,
                                        args.metric)
    for line in improvements:
        print(f"  better {line}")
    for line in regressions:
        print(f"  WORSE  {line}")
    for line in gate_failures:
        print(f"  WORSE  speedup gate failed: {line}")

    missing = sorted(set(base) - set(cand))
    if missing:
        print(f"bench_diff: WARNING: {len(missing)} baseline row(s) missing "
              f"from candidate (first: {missing[0]})")

    print(f"bench_diff: {compared} comparisons, "
          f"{len(improvements)} improvement(s), "
          f"{len(regressions)} regression(s), "
          f"{len(gate_failures)} speedup-gate failure(s) "
          f"(threshold {args.threshold}%/{args.sched_threshold}% on "
          f"{args.metric})")
    if regressions:
        auto_explain(args)
    sys.exit(1 if regressions or gate_failures else 0)


if __name__ == "__main__":
    main()
