"""Self-test of the benchmark at tiny sizes (about half a minute).

Run from the repository root::

    python3 perfbench/selftest.py

For every workload it runs ``run.py --size tiny`` untraced and traced and
checks that the run passes its output gate, exits 0 and prints, as its last
line, the result object with every metric BENCHMARK.json names, with its
unit.  It checks that two traced runs give identical counts, that the
per-layer self times add up to the traced round, and that the benchmark
refuses to run, without a result, where there is no autalg source tree.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
ROOT = pathlib.Path.cwd()
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def bench(workload: str, trace: int, cwd=ROOT) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "11", "--seconds", "1", "--trace", str(trace),
                           "--size", "tiny"],
                          cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout


def result_of(workload: str, trace: int, wanted: list[dict]) -> dict:
    code, out = bench(workload, trace)
    if code != 0:
        raise SystemExit(f"{workload} trace={trace}: exit {code}\n{out}")
    result = json.loads(out.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise SystemExit(f"{workload}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        raise SystemExit(f"{workload} trace={trace}: gate failed: {result}")
    names = [m["name"] for m in wanted]
    if list(result["metrics"]) != names:
        raise SystemExit(f"{workload} trace={trace}: metrics {list(result['metrics'])}")
    for m in wanted:
        got = result["metrics"][m["name"]]
        if got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
            raise SystemExit(f"{workload}: bad metric {m['name']}: {got}")
    return result["metrics"]


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    for workload in workloads.WORKLOADS:
        result_of(workload, 0, spec["end_to_end"])
        first = result_of(workload, 1, spec["per_layer"])
        second = result_of(workload, 1, spec["per_layer"])
        counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
        changed = [c for c in counts if first[c]["value"] != second[c]["value"]]
        if changed:
            raise SystemExit(f"{workload}: counts differ between traced runs: {changed}")
        own = sum(v["value"] for k, v in first.items() if k.endswith(".self_s"))
        wall = first["trace.wall_s"]["value"]
        if abs(own - wall) > 1e-3 * max(wall, 1.0):
            raise SystemExit(f"{workload}: self times {own} do not add up to {wall}")
        print(f"{workload}: gate passed, every metric present")

    (HERE / "out").mkdir(exist_ok=True)
    bare = pathlib.Path(tempfile.mkdtemp(prefix="bare-", dir=HERE / "out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        code, out = bench(workloads.WORKLOADS[0], 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or out.strip():
        raise SystemExit(f"without src/ the benchmark exited {code} with {out!r}")
    print("without src/: refused, no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
