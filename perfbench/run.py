"""autalg benchmark: one workload, timed in fresh processes, outputs checked.

Run from the repository root::

    python3 perfbench/run.py --workload dense-f3-l4 --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it runs set-up probes and then whole rounds of the
workload, each in a fresh process, until ``--seconds`` would be exceeded
(always at least one round), and reports the end-to-end metrics listed in
BENCHMARK.json.  With ``--trace 1`` it runs one untraced round, one traced
round and one probe process, and reports the per-layer metrics.  All times
are reference seconds: wall time rescaled by the machine speed measured
alongside (refclock.py), so that the drifting speed of a shared host does
not show as a change of autalg's.  The last line of stdout is the JSON
result; the exit code is 0 only if every operation matched the output
recorded at the seed commit.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = pathlib.Path.cwd()
HARD_LIMIT_S = 170.0        # every run ends well inside the 180 s allowance
SETUP_PROBES = 7

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


class ChildFailed(Exception):
    pass


def run_child(spec: dict, deadline: float) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed("no time left for another process")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                              env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{spec['mode']} process timed out") from None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise ChildFailed(f"{spec['mode']} process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it, and its
    description; the maximum while that percentile would lie below the
    median (fewer than 21 samples)."""
    s = sorted(samples)
    n = len(s)
    if n < 21:
        return s[-1], f"max of {n}"
    return s[n - 11], f"p{100 * (n - 10) // n} of {n}"


def end_to_end(setups: list[float], rounds: list[dict]) -> tuple[dict, list[str]]:
    items = [x for r in rounds for x in r["items"]]
    tail_value, tail_note = tail(items)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "ideal_s": statistics.median(r["seconds"]["ideal"] for r in rounds),
        "compare_s": statistics.median(r["seconds"]["compare"] for r in rounds),
        "items_per_s": statistics.median(len(r["items"]) / r["wall_s"] for r in rounds),
        "item_p50_s": statistics.median(items),
        "item_tail_s": tail_value,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    notes = [f"rounds: {len(rounds)}, setup samples: {len(setups)}",
             "times are reference seconds (see refclock.py); wall clock: "
             + ", ".join(f"{r['raw_wall_s']:.3f} s at speed {r['speed']:.3f}"
                         for r in rounds),
             f"item_tail_s is the {tail_note} per-presentation latencies",
             f"check_s: {statistics.median(r['seconds']['check'] for r in rounds):.6f} s"]
    return values, notes


def per_layer(untraced: dict, traced: dict, probe: dict) -> tuple[dict, list[str]]:
    values = dict(traced["layers"])
    for key in ("ideal_forward_s", "ideal_inverse_s", "locus_build_s", "locus_scan_s"):
        values[f"autscheme.{key}"] = probe[key]
    values["cli.stdout_bytes"] = traced["stdout_bytes"]
    values["trace.wall_s"] = traced["wall_s"]
    values["trace.untraced_wall_s"] = untraced["wall_s"]
    values["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    own = sum(v for k, v in values.items() if k.endswith(".self_s"))
    notes = [f"sum of per-layer self times {own:.6f} s, traced wall "
             f"{traced['wall_s']:.6f} s, untraced wall {untraced['wall_s']:.6f} s"]
    return values, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                    help="input scale; 'tiny' is for the self-test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "autalg" / "__init__.py").is_file():
        print("error: run from the root of an autalg checkout (src/autalg missing)",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    spec = {"workload": args.workload, "seed": args.seed, "size": args.size}
    attempted = failed = 0
    try:
        if args.trace:
            untraced = run_child({**spec, "mode": "round"}, deadline)
            traced = run_child({**spec, "mode": "round", "trace": True}, deadline)
            probe = run_child({**spec, "mode": "probe"}, deadline)
            values, notes = per_layer(untraced, traced, probe)
            rounds = [untraced, traced]
        else:
            setups = [run_child({**spec, "mode": "setup"}, deadline)["setup_s"]
                      for _ in range(SETUP_PROBES)]
            rounds = []
            measure_start = time.monotonic()
            while True:
                t0 = time.monotonic()
                rounds.append(run_child({**spec, "mode": "round"}, deadline))
                now = time.monotonic()
                if now + (now - t0) > min(measure_start + args.seconds, deadline):
                    break
            setups += [r["setup_s"] for r in rounds]
            values, notes = end_to_end(setups, rounds)
        attempted = sum(r["attempted"] for r in rounds)
        failed = sum(r["failed"] for r in rounds)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{args.workload:14} {m['name']:32} {values[m['name']]:>16.6f} {m['unit']}")
    for note in notes:
        print(f"{args.workload:14} {note}")
    print(f"{args.workload:14} fail_share: {failed}/{attempted}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
