"""One fresh benchmark process: set up a workload and run one round of it.

Usage (from the repository root, with ``src`` on PYTHONPATH; run.py does
this)::

    python3 perfbench/child.py '{"workload": "big-group", "seed": 1,
                                 "size": "full", "mode": "round"}'

Modes: ``setup`` (import autalg, generate and parse the inputs), ``round``
(set up, then one timed round, traced when ``"trace": true``), ``probe``
(set up, then the ideal with the inverse block off and on, and two
``locus_points`` calls on one system).  Times are in reference seconds
(see refclock.py).  The last line of stdout is a JSON object with the
results.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import refclock  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
OUT = HERE / "out"


def expected_for(spec: dict) -> dict:
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        return json.load(fh)[spec["size"]][spec["workload"]]


def setup(spec: dict, tmp: pathlib.Path):
    """Import autalg, generate the inputs from the seed, write and parse them."""
    import autalg

    if "locus_sizes" in spec:
        locus_sizes = spec["locus_sizes"]
    elif spec["workload"] == "random-family":
        locus_sizes = expected_for(spec)["locus_sizes"]
    else:
        locus_sizes = None
    inputs = workloads.make_inputs(spec["workload"], spec["seed"], spec["size"],
                                   locus_sizes)
    paths = []
    for name, text in inputs:
        path = tmp / f"{name}.malg"
        path.write_text(text, encoding="utf-8")
        paths.append(str(path))
    for path in paths:
        autalg.parse_file(path)
    return inputs, paths


def run_round(spec, inputs, paths, clock) -> dict:
    expected = None
    if not spec.get("record"):
        member = str(spec["seed"] % workloads.POOL)
        expected = expected_for(spec)["members"][member]
    tracer = None
    if spec.get("trace"):
        tracer = tracing.Tracer(lambda: clock.now()[1])
        tracer.install()
    rnd = workloads.Round(expected, clock, tracer)
    raw0, ref0 = clock.now()
    root = tracer.open("bench.round") if tracer else None
    workloads.run_round(spec["workload"], spec["size"], inputs, paths, rnd)
    if tracer:
        tracer.close(root)
    raw1, ref1 = clock.now()
    missing = [k for k in (expected or {}) if k not in rnd.observed]
    out = {
        "wall_s": ref1 - ref0,
        "raw_wall_s": raw1 - raw0,
        "speed": clock.speed(),
        "seconds": rnd.seconds,
        "items": rnd.items,
        "attempted": rnd.attempted + len(missing),
        "failed": rnd.failed + len(missing),
        "stdout_bytes": rnd.stdout_bytes,
    }
    if spec.get("record"):
        out["observed"] = rnd.observed
    if tracer:
        out["layers"] = tracing.layer_metrics(tracer)
        OUT.mkdir(exist_ok=True)
        name = f"spans-{spec['workload']}-{spec['seed']}.json"
        with open(OUT / name, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "item"],
                       "spans": tracer.spans}, fh)
    return out


def run_probe(spec, paths, tmp, clock) -> dict:
    """Forward block alone (inverse off), inverse block (on minus off), and
    checker build (first minus second locus_points call on one system)."""
    import autalg

    cfg = workloads.SIZES[spec["size"]][spec["workload"]]
    out = {"ideal_forward_s": 0.0, "ideal_inverse_s": 0.0,
           "locus_build_s": 0.0, "locus_scan_s": 0.0}
    for path, length, locus in workloads.probe_plan(spec["workload"], cfg, paths, tmp):
        t0 = clock.now()[1]
        autalg.ideal_generators(autalg.parse_file(path), length, inverse=False)
        t1 = clock.now()[1]
        system = autalg.ideal_generators(autalg.parse_file(path), length)
        t2 = clock.now()[1]
        out["ideal_forward_s"] += t1 - t0
        out["ideal_inverse_s"] += (t2 - t1) - (t1 - t0)
        if locus:
            t0 = clock.now()[1]
            autalg.locus_points(system)
            t1 = clock.now()[1]
            autalg.locus_points(system)
            t2 = clock.now()[1]
            out["locus_build_s"] += (t1 - t0) - (t2 - t1)
            out["locus_scan_s"] += t2 - t1
    return out


def main(argv) -> int:
    spec = json.loads(argv[1])
    OUT.mkdir(exist_ok=True)
    tmp = pathlib.Path(tempfile.mkdtemp(prefix="inputs-", dir=OUT))
    try:
        inputs, paths = setup(spec, tmp)
        setup_raw = time.perf_counter() - T0
        # everything in reference seconds; the set-up by the speed measured
        # right after it
        clock = refclock.RefClock()
        clock.start()
        result = {"setup_s": setup_raw * clock.speed()}
        if spec["mode"] == "round":
            result.update(run_round(spec, inputs, paths, clock))
        elif spec["mode"] == "probe":
            result.update(run_probe(spec, paths, tmp, clock))
        clock.stop()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
