"""Record the expected output of every operation, for every pool member.

Run from the repository root at the commit whose outputs are the reference::

    python3 perfbench/record.py --size tiny
    python3 perfbench/record.py --size full [--workload big-group ...]

It updates ``perfbench/expected.json`` in place.  For each workload and
each member ``m`` (the inputs of every seed ``s`` with ``s % POOL == m``)
it stores the observed result of each operation: the exit code and the
sha256 of stdout for ``autalg ideal`` and the other text outputs, the
verdict line for ``autalg compare``, and point counts and verdicts for the
library calls.  For ``random-family`` it also stores the short-length locus
sizes, which fix how the acceptance-6 generator advances between items.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import run
import workloads


def family_locus_sizes(size: str) -> list[int]:
    """Locus sizes of the unscaled family at the short length, computed
    item by item as the acceptance-6 procedure does."""
    sys.path.insert(0, str(run.ROOT / "src"))
    import autalg

    cfg = workloads.SIZES[size]["random-family"]
    short = cfg["lengths"][0]
    sizes: list[int] = []

    def locus_size(k, p, labels, dim, mul):
        text = workloads.malg_text(f"Fp {p}", labels, dim, mul)
        system = autalg.ideal_generators(autalg.parse(text), short)
        sizes.append(len(autalg.locus_points(system)))
        return sizes[-1]

    items = workloads.family(cfg["items"], locus_size)
    locus_size(len(items) - 1, *items[-1])
    return sizes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--size", choices=tuple(workloads.SIZES), required=True)
    ap.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    args = ap.parse_args(argv)

    path = run.HERE / "expected.json"
    table = json.loads(path.read_text()) if path.exists() else {}
    for workload in args.workload or workloads.WORKLOADS:
        entry = {"members": {}}
        spec = {"workload": workload, "size": args.size, "mode": "round",
                "record": True}
        if workload == "random-family":
            entry["locus_sizes"] = spec["locus_sizes"] = family_locus_sizes(args.size)
        for member in range(workloads.POOL):
            t0 = time.monotonic()
            result = run.run_child({**spec, "seed": member}, t0 + 3600)
            if result["failed"]:
                raise SystemExit(f"{workload} member {member}: an operation raised")
            observed = result["observed"]
            for k, size in enumerate(entry.get("locus_sizes", [])):
                short = workloads.SIZES[args.size][workload]["lengths"][0]
                if observed[f"item{k:02d}/locus{short}"][0] != size:
                    raise SystemExit(f"member {member} item {k}: locus size changed")
            entry["members"][str(member)] = observed
            print(f"{args.size} {workload} member {member}: "
                  f"{len(result['observed'])} operations, "
                  f"{time.monotonic() - t0:.1f} s", flush=True)
        table.setdefault(args.size, {})[workload] = entry
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
