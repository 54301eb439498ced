#!/usr/bin/env python3
"""Smoke test of the planning benchmark.

    python3 perfbench/smoke_test.py

Runs a tiny size of every workload in BENCHMARK.json, untraced and traced,
through perfbench/run.py, and checks that each run prints every metric the
file names, with its unit, and that no request failed (failed_frac = 0).
Exits non-zero on the first violation.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload: str, trace: str) -> None:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0.5", "--trace", trace,
           "--size", "tiny"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    where = f"{workload} --trace {trace}"
    if out.returncode != 0:
        sys.exit(f"FAIL {where}: exit {out.returncode}\n{out.stdout}{out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True and result["failed"] == 0, where
    assert result["attempted"] >= 1, where
    if trace == "0":
        assert "  failed_frac = 0 (0/" in out.stdout, where
    expected = SPEC["per_layer" if trace == "1" else "end_to_end"]
    got = result["metrics"]
    assert set(got) == {m["name"] for m in expected}, (where, sorted(got))
    for m in expected:
        value, unit = got[m["name"]]["value"], got[m["name"]]["unit"]
        assert unit == m["unit"], (where, m["name"], unit)
        assert isinstance(value, (int, float)) and value >= 0, (where, m)
        assert f"  {m['name']} = " in out.stdout, (where, m["name"])
    print(f"ok {where}: {result['attempted']} requests, "
          f"{len(got)} metrics")


def main() -> int:
    for w in SPEC["workloads"]:
        for trace in ("0", "1"):
            run(w["name"], trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
