"""Seeded inputs and timed rounds of the four benchmark workloads.

Every workload draws one fixed-scale instance and lets ``--seed`` pick one
of ``POOL`` isomorphic copies of it: member ``seed % POOL`` rescales the
basis by a diagonal matrix drawn from ``random.Random("<workload>/<member>")``
(member 0 is the instance as drawn).  A diagonal change of basis keeps the
product pattern, the kernel dimension and the automorphism group order, so
different seeds give different bytes to the program but nearly the same
amount of work (the generating set can differ: item 11 of the family has
7,769 to 9,385 generators at L=4 across members); a permutation of the basis is not used, because it reorders the
oracle's columns and changes its cost.  Expected outputs for every member
are recorded in ``expected.json`` by ``record.py``.

Why each workload exists:

* ``dense-f3-l4``: one big system (8,647 generators at L=4) where the
  forward block, inverse block, formatting and checker build do almost all
  the work and the oracle almost none.
* ``random-family``: the acceptance-6 procedure on the test's own seeded
  family; many small systems with a heavy tail, where per-call overhead and
  the L=4 forward block dominate.
* ``big-group``: large automorphism groups; the ideal is cheap and the locus
  scan and the oracle search do the work.
* ``rational-l4``: the same pipeline over Q, where Fraction arithmetic in
  rref, primitive rescaling and polynomial coefficients is the cost, then
  base change to F_5 and a compare.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import sys
import traceback
from fractions import Fraction

POOL = 8
FAMILY_SEED = 20260823          # the seed of tests/test_acceptance.py, test 6
DENSE_DRAW = 3                  # random.Random(3) gives the 8,647-generator draw
RATIONAL_DRAW = 7               # random.Random(7) gives a 9,885-generator draw
RATIONAL_COEFFS = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2),
                   Fraction(-3), Fraction(2, 3)]
NAMES = ["e1", "e2", "e3", "e4"]

WORKLOADS = ("dense-f3-l4", "random-family", "big-group", "rational-l4")

# Per-size parameters.  "tiny" exists for selftest.py only.
SIZES = {
    "full": {
        "dense-f3-l4": {"dim": 3, "length": 4},
        "random-family": {"items": 14, "lengths": (3, 4)},
        "big-group": {"p": 5, "zero_dim": 4, "length": 3},
        "rational-l4": {"dim": 3, "length": 4, "prime": 5, "compare_length": 3},
    },
    "tiny": {
        "dense-f3-l4": {"dim": 3, "length": 2},
        "random-family": {"items": 4, "lengths": (2, 3)},
        "big-group": {"p": 3, "zero_dim": 3, "length": 2},
        "rational-l4": {"dim": 2, "length": 3, "prime": 5, "compare_length": 2},
    },
}


# -- presentation text -----------------------------------------------------


def malg_text(ring: str, labels, dim: int, mul: dict) -> str:
    """A .malg file in the line style of the acceptance-6 generator; every
    basis element is a generator."""
    names = NAMES[:dim]
    lines = [f"ring {ring}",
             "products " + " ".join(str(m) for m in labels),
             *(f"basis {nm}" for nm in names),
             "generators " + " ".join(names)]
    for (m, i, j), vec in mul.items():
        combo = " + ".join(f"{c}*{names[k]}" for k, c in enumerate(vec) if c)
        lines.append(f"mul {m} {names[i]} {names[j]} = {combo}")
    return "\n".join(lines) + "\n"


def rescale(mul: dict, scale: list, p: int | None) -> dict:
    """Structure constants in the basis e'_i = scale[i] * e_i."""
    out = {}
    for (m, i, j), vec in mul.items():
        if p is None:
            out[(m, i, j)] = [scale[i] * scale[j] * c / scale[k]
                              for k, c in enumerate(vec)]
        else:
            out[(m, i, j)] = [scale[i] * scale[j] * c * pow(scale[k], p - 2, p) % p
                              for k, c in enumerate(vec)]
    return out


def draw_scale(rng: random.Random, dim: int, p: int | None) -> list:
    if p is None:
        return [rng.choice((1, -1)) for _ in range(dim)]
    return [rng.randrange(1, p) for _ in range(dim)]


def member_scale(workload: str, member: int, dim: int, p: int | None, item=0):
    if member == 0:
        return [1] * dim
    return draw_scale(random.Random(f"{workload}/{member}/{item}"), dim, p)


def dense_draw(rng: random.Random, dim: int, p: int = 3, prob: float = 0.3) -> dict:
    mul = {}
    for m in (0, 1):
        for i in range(dim):
            for j in range(dim):
                if rng.random() < prob:
                    vec = [rng.randrange(p) for _ in range(dim)]
                    if any(vec):
                        mul[(m, i, j)] = vec
    return mul


def rational_draw(rng: random.Random, dim: int, prob: float = 0.3) -> dict:
    mul = {}
    for m in (0, 1):
        for i in range(dim):
            for j in range(dim):
                if rng.random() < prob:
                    vec = [Fraction(0) if rng.random() < 0.5
                           else rng.choice(RATIONAL_COEFFS) for _ in range(dim)]
                    if any(vec):
                        mul[(m, i, j)] = vec
    return mul


def random_presentation(rng: random.Random):
    """The acceptance-6 generator (tests/test_acceptance.py,
    ``_random_presentation``) with the same calls on ``rng``; returns the
    prime, the label list, the dimension and the structure constants."""
    dim = rng.randint(1, 3)
    nl = rng.randint(1, 2)
    p = rng.choice([2, 3])
    mul = {}
    for m in range(nl):
        for i in range(dim):
            for j in range(dim):
                if rng.random() < 0.2:
                    vec = [rng.randrange(p) for _ in range(dim)]
                    if any(vec):
                        mul[(m, i, j)] = vec
    return p, list(range(nl)), dim, mul


def skip_closure_draws(rng: random.Random, locus_size: int) -> None:
    """Advance ``rng`` exactly as the acceptance-6 group-closure check does:
    2000 random pairs of locus points once the locus has more than 64."""
    if locus_size ** 2 > 4096:
        for _ in range(4000):
            rng.choice(range(locus_size))


def family(count: int, locus_size) -> list[tuple]:
    """The first ``count`` presentations of the acceptance-6 family, drawn
    from random.Random(FAMILY_SEED); ``locus_size(k, p, labels, dim, mul)``
    gives the L=3 locus size of item k, which decides how far the test's
    closure check advances the generator before the next draw."""
    rng = random.Random(FAMILY_SEED)
    items = []
    for k in range(count):
        item = random_presentation(rng)
        items.append(item)
        if k + 1 < count:
            skip_closure_draws(rng, locus_size(k, *item))
    return items


BIG_GROUP = (
    # (name, dim, structure constants): x*x = z; x*x = y, x*y = z; x*y = z;
    # zero products
    ("square", 3, {(0, 0, 0): [0, 0, 1]}),
    ("chain", 3, {(0, 0, 0): [0, 1, 0], (0, 0, 1): [0, 0, 1]}),
    ("product", 3, {(0, 0, 1): [0, 0, 1]}),
    ("zero", None, {}),
)


def make_inputs(workload: str, seed: int, size: str, locus_sizes=None) -> list[tuple]:
    """The workload's presentations as (name, .malg text) pairs."""
    cfg = SIZES[size][workload]
    member = seed % POOL
    if workload == "dense-f3-l4":
        dim = cfg["dim"]
        mul = dense_draw(random.Random(DENSE_DRAW), dim)
        mul = rescale(mul, member_scale(workload, member, dim, 3), 3)
        return [("dense", malg_text("Fp 3", [0, 1], dim, mul))]
    if workload == "random-family":
        def size_of(k, *item):
            return locus_sizes[k]
        out = []
        for k, (p, labels, dim, mul) in enumerate(family(cfg["items"], size_of)):
            mul = rescale(mul, member_scale(workload, member, dim, p, k), p)
            out.append((f"item{k:02d}", malg_text(f"Fp {p}", labels, dim, mul)))
        return out
    if workload == "big-group":
        p = cfg["p"]
        out = []
        for name, dim, mul in BIG_GROUP:
            if dim is None:
                out.append((name, malg_text("Fp 2", [0], cfg["zero_dim"], {})))
                continue
            mul = rescale(mul, member_scale(workload, member, dim, p, name), p)
            out.append((name, malg_text(f"Fp {p}", [0], dim, mul)))
        return out
    if workload == "rational-l4":
        dim = cfg["dim"]
        mul = rational_draw(random.Random(RATIONAL_DRAW), dim)
        mul = rescale(mul, member_scale(workload, member, dim, None), None)
        return [("rational", malg_text("Q", [0, 1], dim, mul))]
    raise ValueError(f"unknown workload {workload!r}")


# -- timed rounds ----------------------------------------------------------


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def ideal_text(system) -> str:
    """The ``autalg ideal`` stdout for a system."""
    import autalg

    return "".join(line + "\n" for line in
                   [system.meta_line()] + [autalg.format_poly(g) for g in system.generators])


class ItemFailed(Exception):
    pass


class Round:
    """Times the operations of one round and checks each observed result
    against the recorded one (``expected`` is None while recording).
    Times are read from ``clock`` (see refclock.py): reference seconds."""

    def __init__(self, expected: dict | None, clock, tracer=None):
        self.expected = expected
        self.clock = clock
        self.tracer = tracer
        self.observed: dict = {}
        self.attempted = 0
        self.failed = 0
        self.seconds = {"parse": 0.0, "ideal": 0.0, "compare": 0.0, "check": 0.0,
                        "locus": 0.0, "base_change": 0.0}
        self.items: list[float] = []
        self.stdout_bytes = 0
        self._latency = 0.0

    @contextlib.contextmanager
    def item(self, index: int):
        if self.tracer is not None:
            self.tracer.item = index
        self._latency = 0.0
        try:
            yield
        except ItemFailed:
            pass
        self.items.append(self._latency)

    def op(self, label: str, category: str, fn, observe):
        """Run fn() timed; compare observe(result) with the recorded value."""
        self.attempted += 1
        t0 = self.clock.now()[1]
        try:
            result = fn()
        except (Exception, SystemExit):
            self._account(category, self.clock.now()[1] - t0)
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            self.observed[label] = "raised"
            raise ItemFailed(label) from None
        self._account(category, self.clock.now()[1] - t0)
        got = _plain(observe(result))
        self.observed[label] = got
        if self.expected is not None and self.expected.get(label) != got:
            print(f"mismatch at {label}: expected {self.expected.get(label)!r}, "
                  f"got {got!r}", file=sys.stderr)
            self.failed += 1
        return result

    def _account(self, category, dt):
        self.seconds[category] += dt
        self._latency += dt

    def cli(self, label: str, category: str, argv: list, observe):
        """``autalg <argv>`` through autalg.cli.main with stdout captured."""
        import autalg.cli

        def call():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = autalg.cli.main(argv)
            return code, buf.getvalue()

        code, out = self.op(label, category, call, lambda r: [r[0], observe(r[1])])
        self.stdout_bytes += len(out.encode())
        return code, out


def _plain(value):
    """Tuples to lists, so values compare equal after a JSON round trip."""
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def verdict(out: str) -> str:
    return out.strip()


def run_round(workload: str, size: str, inputs: list[tuple], paths: list[str],
              rnd: Round) -> None:
    """One round: every operation of the workload, starting from the files."""
    cfg = SIZES[size][workload]
    if workload in ("dense-f3-l4", "big-group"):
        length = str(cfg["length"])
        for k, ((name, _), path) in enumerate(zip(inputs, paths)):
            with rnd.item(k):
                rnd.cli(f"{name}/ideal", "ideal",
                        ["ideal", "--input", path, "--max-length", length], sha256)
                rnd.cli(f"{name}/compare", "compare",
                        ["compare", "--input", path, "--max-length", length], verdict)
    elif workload == "rational-l4":
        _rational_round(cfg, paths[0], rnd)
    elif workload == "random-family":
        for k, ((name, _), path) in enumerate(zip(inputs, paths)):
            with rnd.item(k):
                _family_item(cfg, name, path, rnd)
    else:
        raise ValueError(f"unknown workload {workload!r}")


def _rational_round(cfg, path, rnd: Round) -> None:
    import autalg

    with rnd.item(0):
        rnd.cli("ideal", "ideal",
                ["ideal", "--input", path, "--max-length", str(cfg["length"])], sha256)
        fp_path = path[:-len(".malg")] + f"_f{cfg['prime']}.malg"

        def change():
            pres_q = autalg.parse_file(path)
            text = autalg.format_presentation(autalg.base_change(pres_q, cfg["prime"]))
            with open(fp_path, "w", encoding="utf-8") as fh:
                fh.write(text)
            return text

        rnd.op("base_change", "base_change", change, sha256)
        rnd.cli("compare", "compare",
                ["compare", "--input", fp_path, "--max-length",
                 str(cfg["compare_length"])], verdict)


def _family_item(cfg, name, path, rnd: Round) -> None:
    """One presentation of the acceptance-6 procedure: ideal at the short
    length, its locus, ideal at the long length, a point check of every
    locus point, and a compare once the truncation has stabilised."""
    import autalg

    short, long_ = cfg["lengths"]
    pres = rnd.op(f"{name}/parse", "parse", lambda: autalg.parse_file(path),
                  lambda pres: pres.dim)

    def ideal(length):
        def call():
            system = autalg.ideal_generators(pres, length)
            return system, ideal_text(system)
        return call

    s_short, _ = rnd.op(f"{name}/ideal{short}", "ideal", ideal(short),
                        lambda r: sha256(r[1]))
    points = rnd.op(f"{name}/locus{short}", "locus",
                    lambda: autalg.locus_points(s_short),
                    lambda pts: [len(pts), sha256(repr(pts))])
    s_long, _ = rnd.op(f"{name}/ideal{long_}", "ideal", ideal(long_),
                       lambda r: sha256(r[1]))
    kept = rnd.op(f"{name}/check{long_}", "check",
                  lambda: [autalg.check_point(s_long, pt) for pt in points],
                  lambda flags: sha256(repr(flags)))
    if all(kept):
        rnd.op(f"{name}/compare{short}", "compare",
               lambda: autalg.compare_locus(pres, s_short),
               lambda rep: [rep.equal, rep.locus_size, rep.oracle_size])


def probe_plan(workload: str, cfg: dict, paths: list[str], tmp) -> list[tuple]:
    """(input path, length, also probe the locus) for each system a round
    builds an ideal of."""
    if workload == "dense-f3-l4":
        return [(paths[0], cfg["length"], True)]
    if workload == "big-group":
        return [(path, cfg["length"], True) for path in paths]
    if workload == "random-family":
        short, long_ = cfg["lengths"]
        return [plan for path in paths
                for plan in ((path, short, True), (path, long_, False))]
    if workload == "rational-l4":
        import autalg

        fp_path = str(tmp / f"rational_f{cfg['prime']}.malg")
        with open(fp_path, "w", encoding="utf-8") as fh:
            fh.write(autalg.format_presentation(
                autalg.base_change(autalg.parse_file(paths[0]), cfg["prime"])))
        return [(paths[0], cfg["length"], False), (fp_path, cfg["compare_length"], True)]
    raise ValueError(f"unknown workload {workload!r}")
