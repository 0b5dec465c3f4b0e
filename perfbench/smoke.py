#!/usr/bin/env python3
"""Smoke check of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py

Runs every workload of ``run.py`` once untraced and once traced with
``--tiny --seconds 1``, and checks that each run passes its own checks and
prints exactly the metrics ``BENCHMARK.json`` names, with their units.
Then checks that the benchmark fails, without printing a result, in a
directory that holds only ``BENCHMARK.json`` and the benchmark's files.
Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "11", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_run(spec, workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    env = json.loads(lines[0])["env"]
    assert env["workload"] == workload and env["seed"] == 11, env
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, result
    assert result["attempted"] >= 1
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == wanted, sorted(set(got) ^ set(wanted))
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    if not trace:
        assert all(result["metrics"][name]["value"] > 0 for name in wanted)
    print(f"ok  {workload} trace={trace}", flush=True)


def check_refuses_without_sources(spec):
    with tempfile.TemporaryDirectory(prefix=".perfbench-smoke-",
                                     dir=ROOT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, Path(tmp) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(tmp, spec["workloads"][0]["name"], 0)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("ok  refuses to run without the sources", flush=True)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_run(spec, workload, trace)
    check_refuses_without_sources(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
