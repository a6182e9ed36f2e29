"""Finitely presented multi-product algebras: file format, validation,
generation certificate, scalar reduction to prime fields.

File format (line oriented, ``#`` comments and blank lines ignored)::

    ring Q            | ring Fp 3
    products -1 0 1
    grading none | vertex | table
    basis x 1                     # name [degree]; degree required unless grading none
    basis y 2
    generators x y
    fixed 1*x + 2*y               # optional, repeatable
    mul 0 x x = 1*y               # omitted products are zero
    dtable 1 0 1 = 2              # only with grading table

``grading vertex`` fixes the product-degree function d(a, m, b) = a + b - m - 1.
``ring``, ``products``, ``grading`` and ``generators`` appear at most once,
with distinct generator names; ``mul`` and ``dtable`` keys are unique.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from . import linalg
from .errors import (BadPrime, DuplicateBasis, GradingViolation, NotGenerating,
                     PresentationSyntaxError, UnknownName)
from .freealg import eta_element, eta_matrix, structure_product
from .rings import QQ, GF, Ring, parse_ring, reduce_mod_p
from .words import (DEFAULT_WORD_CAP, Universe, Word, table_degree_rule,
                    vertex_degree_rule)

_TERM_SPLIT = re.compile(r"\s*\+\s*")


@dataclass
class Presentation:
    ring: Ring
    basis: list[str]
    degrees: list[int] | None
    labels: list[int]
    gens: list[int]                      # 0-based basis indices spanning F
    mul: dict[tuple[int, int, int], tuple]   # (label, i, j) -> coordinate vector
    grading: str = "none"                # none | vertex | table
    dtable: dict[tuple[int, int, int], int] = field(default_factory=dict)
    fixed: list[tuple] = field(default_factory=list)

    def __post_init__(self):
        self._universe = None
        self.eta_cache: dict = {}
        self.validate()
        # per label, the nonzero structure constants as (i, j, [(k, s_k), ...])
        # in the order of mul; structure_product and the word images walk these
        self._products: dict[int, list] = {m: [] for m in self.labels}
        for (m, i, j), vec in self.mul.items():
            self._products[m].append((i, j, [(k, s) for k, s in enumerate(vec) if s]))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def num_gens(self) -> int:
        return len(self.gens)

    @property
    def universe(self) -> Universe:
        if self._universe is None:
            self._universe = Universe(self.num_gens, self.labels)
        return self._universe

    @property
    def gen_degrees(self) -> list[int]:
        return [self.degrees[i] for i in self.gens]

    def degree_rule(self):
        if self.grading == "vertex":
            return vertex_degree_rule
        if self.grading == "table":
            return table_degree_rule(self.dtable)
        return None

    def validate(self) -> None:
        if len(set(self.basis)) != len(self.basis):
            raise DuplicateBasis("basis names are not unique")
        if not self.gens:
            raise UnknownName("generator set is empty")
        if any(not 0 <= i < self.dim for i in self.gens):
            raise PresentationSyntaxError(0, "generator index out of range")
        if len(set(self.gens)) != len(self.gens):
            raise PresentationSyntaxError(0, "duplicate generator index")
        if not self.labels or len(set(self.labels)) != len(self.labels):
            raise PresentationSyntaxError(0, "product labels must be nonempty and duplicate-free")
        if self.grading != "none" and self.degrees is None:
            raise PresentationSyntaxError(0, "graded presentation requires basis degrees")
        if self.degrees is not None and len(self.degrees) != self.dim:
            raise PresentationSyntaxError(0, "need one degree per basis element")
        for (m, i, j), vec in self.mul.items():
            if m not in self.labels:
                raise UnknownName(f"product label {m} not declared")
            if not (0 <= i < self.dim and 0 <= j < self.dim):
                raise PresentationSyntaxError(0, "structure constant index out of range")
            if len(vec) != self.dim:
                raise PresentationSyntaxError(0, "structure constant vector has wrong length")
        if any(len(vec) != self.dim for vec in self.fixed):
            raise PresentationSyntaxError(0, "fixed vector has wrong length")
        d = self.degree_rule()
        if d is not None:
            for (m, i, j), vec in self.mul.items():
                lam = d(self.degrees[i], m, self.degrees[j])
                for k, c in enumerate(vec):
                    if c and self.degrees[k] != lam:
                        raise GradingViolation(
                            f"product <{m}> of {self.basis[i]} and {self.basis[j]} "
                            f"hits {self.basis[k]} of degree {self.degrees[k]}, expected {lam}")


@dataclass
class SectionData:
    """For each basis element, a free-algebra preimage under evaluation."""

    elements: list[dict[Word, object]]
    max_length: int


def generation_closure(pres: Presentation, cap: int = DEFAULT_WORD_CAP) -> SectionData:
    """Certify that the generators span a generating submodule and produce a
    section of the evaluation map.

    The span of the generators is closed under all products round by round
    (stable in at most dim rounds).  If it reaches the whole algebra, the
    section is read off the pivot columns of ``linalg.rref`` over the eta
    matrix of the shortest truncation whose words span the algebra: the
    pivot words are those whose image is independent of every earlier word
    in canonical order, and inverting their images gives one preimage
    combination per basis element.
    """
    ring, dim = pres.ring, pres.dim

    # round-based span closure; on failure this is the NotGenerating witness
    rows: list[list] = []
    for i in pres.gens:
        v = [ring.zero] * dim
        v[i] = ring.one
        rows.append(v)
    rows, _ = linalg.rref(ring, rows)
    rows = [r for r in rows if any(r)]
    rounds = 1
    while len(rows) < dim:
        new_rows = list(rows)
        for u in rows:
            for v in rows:
                for m in pres.labels:
                    w = list(structure_product(pres, tuple(u), tuple(v), m))
                    if any(w):
                        new_rows.append(w)
        new_rows, _ = linalg.rref(ring, new_rows)
        new_rows = [r for r in new_rows if any(r)]
        if len(new_rows) == len(rows):
            raise NotGenerating([tuple(r) for r in rows])
        rows = new_rows
        rounds += 1

    # shortest-word pivots: closure in r rounds means length 2^(r-1) suffices
    for length in range(1, (1 << (rounds - 1)) + 1):
        eta, table = eta_matrix(pres, length, cap)
        _, pivots = linalg.rref(ring, eta)
        if len(pivots) == dim:
            break
    else:
        raise AssertionError("section search exceeded its length bound")

    # solve V c = e_i with V the pivot columns of eta
    words = table.words
    vinv = linalg.inverse(ring, [[row[c] for c in pivots] for row in eta])
    elements = [{words[c]: x for j, c in enumerate(pivots) if (x := vinv[j][i])}
                for i in range(dim)]
    section = SectionData(elements, length)
    for i, e in enumerate(section.elements):
        img = eta_element(e, pres)
        expect = tuple(ring.one if k == i else ring.zero for k in range(dim))
        assert img == expect, "section failed to invert the evaluation map"
    return section


def base_change(pres: Presentation, p: int) -> Presentation:
    """Scalar reduction of a rational presentation to F_p."""
    if pres.ring != QQ:
        raise BadPrime("base change starts from a rational presentation")
    fp = GF(p)

    def red_vec(vec):
        return tuple(reduce_mod_p(c, p) for c in vec)

    return Presentation(
        ring=fp,
        basis=list(pres.basis),
        degrees=None if pres.degrees is None else list(pres.degrees),
        labels=list(pres.labels),
        gens=list(pres.gens),
        mul={k: red_vec(v) for k, v in pres.mul.items()},
        grading=pres.grading,
        dtable=dict(pres.dtable),
        fixed=[red_vec(v) for v in pres.fixed],
    )


# -- parsing -------------------------------------------------------------------


def _parse_combo(text: str, names: dict[str, int], ring: Ring, dim: int,
                 lineno: int) -> tuple:
    vec = [ring.zero] * dim
    for term in _TERM_SPLIT.split(text.strip()):
        if "*" not in term:
            raise PresentationSyntaxError(lineno, f"expected coeff*name, got {term!r}")
        cstr, _, name = term.partition("*")
        name = name.strip()
        if name not in names:
            raise UnknownName(f"line {lineno}: unknown basis name {name!r}")
        try:
            c = ring.parse(cstr)
        except ValueError:
            raise PresentationSyntaxError(lineno, f"bad coefficient {cstr!r}") from None
        except BadPrime as exc:
            raise BadPrime(f"line {lineno}: {exc.args[0]}") from None
        k = names[name]
        vec[k] = ring.add(vec[k], c)
    return tuple(vec)


def parse(text: str) -> Presentation:
    ring = None
    labels: list[int] | None = None
    grading = "none"
    basis: list[str] = []
    degrees: list[int | None] = []
    basis_lines: list[int] = []
    gens: list[str] | None = None
    gens_line = 0
    fixed_raw: list[tuple[int, str]] = []
    mul_raw: list[tuple[int, str]] = []
    dtable: dict[tuple[int, int, int], int] = {}
    dtable_line = 0
    seen: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword, _, rest = line.partition(" ")
        rest = rest.strip()
        if keyword in ("ring", "products", "grading", "generators"):
            if keyword in seen:
                raise PresentationSyntaxError(lineno, f"repeated {keyword!r} line")
            seen.add(keyword)
        if keyword == "ring":
            try:
                ring = parse_ring(rest)
            except ValueError:
                raise PresentationSyntaxError(lineno, f"bad ring {rest!r}") from None
        elif keyword == "products":
            try:
                labels = [int(tok) for tok in rest.split()]
            except ValueError:
                raise PresentationSyntaxError(lineno, f"bad product labels {rest!r}") from None
            if not labels or len(set(labels)) != len(labels):
                raise PresentationSyntaxError(
                    lineno, "product labels must be nonempty and duplicate-free")
        elif keyword == "grading":
            if rest not in ("none", "vertex", "table"):
                raise PresentationSyntaxError(lineno, f"bad grading {rest!r}")
            grading = rest
        elif keyword == "basis":
            parts = rest.split()
            if not parts or len(parts) > 2:
                raise PresentationSyntaxError(lineno, f"bad basis line {rest!r}")
            if parts[0] in basis:
                raise DuplicateBasis(f"line {lineno}: duplicate basis name {parts[0]!r}")
            basis.append(parts[0])
            basis_lines.append(lineno)
            try:
                degrees.append(int(parts[1]) if len(parts) == 2 else None)
            except ValueError:
                raise PresentationSyntaxError(lineno, f"bad degree {parts[1]!r}") from None
        elif keyword == "generators":
            gens = rest.split()
            gens_line = lineno
            if len(set(gens)) != len(gens):
                raise PresentationSyntaxError(lineno, "duplicate generator name")
        elif keyword == "fixed":
            fixed_raw.append((lineno, rest))
        elif keyword == "mul":
            mul_raw.append((lineno, rest))
        elif keyword == "dtable":
            m = re.match(r"^(-?\d+)\s+(-?\d+)\s+(-?\d+)\s*=\s*(-?\d+)$", rest)
            if not m:
                raise PresentationSyntaxError(lineno, f"bad dtable line {rest!r}")
            a, lab, b, lam = (int(m.group(k)) for k in range(1, 5))
            if (a, lab, b) in dtable:
                raise PresentationSyntaxError(lineno, f"duplicate dtable entry {rest!r}")
            dtable[(a, lab, b)] = lam
            dtable_line = dtable_line or lineno
        else:
            raise PresentationSyntaxError(lineno, f"unknown keyword {keyword!r}")

    if ring is None:
        raise PresentationSyntaxError(0, "missing ring line")
    if labels is None:
        raise PresentationSyntaxError(0, "missing products line")
    if not basis:
        raise PresentationSyntaxError(0, "missing basis lines")
    if gens is None:
        raise PresentationSyntaxError(0, "missing generators line")
    if dtable and grading != "table":
        raise PresentationSyntaxError(dtable_line, "dtable needs 'grading table'")

    names = {name: i for i, name in enumerate(basis)}
    gen_idx = []
    for g in gens:
        if g not in names:
            raise UnknownName(f"line {gens_line}: unknown generator name {g!r}")
        gen_idx.append(names[g])

    if grading == "none":
        deg_list = None
    else:
        missing = [i for i, d in enumerate(degrees) if d is None]
        if missing:
            raise PresentationSyntaxError(
                basis_lines[missing[0]],
                f"graded presentation but no degree for {basis[missing[0]]!r}")
        deg_list = [int(d) for d in degrees]

    dim = len(basis)
    mul: dict[tuple[int, int, int], tuple] = {}
    for lineno, rest in mul_raw:
        m = re.match(r"^(-?\d+)\s+(\S+)\s+(\S+)\s*=\s*(.+)$", rest)
        if not m:
            raise PresentationSyntaxError(lineno, f"bad mul line {rest!r}")
        label = int(m.group(1))
        if label not in labels:
            raise UnknownName(f"line {lineno}: product label {label} not declared")
        for name in (m.group(2), m.group(3)):
            if name not in names:
                raise UnknownName(f"line {lineno}: unknown basis name {name!r}")
        vec = _parse_combo(m.group(4), names, ring, dim, lineno)
        key = (label, names[m.group(2)], names[m.group(3)])
        if key in mul:
            raise PresentationSyntaxError(lineno, f"second mul line for {rest!r}")
        mul[key] = vec
    mul = {key: vec for key, vec in mul.items() if any(vec)}

    fixed = [_parse_combo(rest, names, ring, dim, lineno)
             for lineno, rest in fixed_raw]

    return Presentation(ring=ring, basis=basis, degrees=deg_list, labels=labels,
                        gens=gen_idx, mul=mul, grading=grading, dtable=dtable,
                        fixed=fixed)


def parse_file(path) -> Presentation:
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read())


# -- canonical printing ----------------------------------------------------


def _format_combo(vec: tuple, basis: list[str]) -> str:
    parts = [f"{c!s}*{basis[i]}" for i, c in enumerate(vec) if c]
    return " + ".join(parts) if parts else f"0*{basis[0]}"


def format_presentation(pres: Presentation) -> str:
    lines = [f"ring {pres.ring}",
             "products " + " ".join(str(m) for m in pres.labels),
             f"grading {pres.grading}"]
    for i, name in enumerate(pres.basis):
        if pres.degrees is None:
            lines.append(f"basis {name}")
        else:
            lines.append(f"basis {name} {pres.degrees[i]}")
    lines.append("generators " + " ".join(pres.basis[i] for i in pres.gens))
    for vec in pres.fixed:
        lines.append("fixed " + _format_combo(vec, pres.basis))
    label_pos = {m: k for k, m in enumerate(pres.labels)}
    for (m, i, j) in sorted(pres.mul, key=lambda k: (label_pos[k[0]], k[1], k[2])):
        combo = _format_combo(pres.mul[(m, i, j)], pres.basis)
        lines.append(f"mul {m} {pres.basis[i]} {pres.basis[j]} = {combo}")
    for key in sorted(pres.dtable):
        a, m, b = key
        lines.append(f"dtable {a} {m} {b} = {pres.dtable[key]}")
    return "\n".join(lines) + "\n"
