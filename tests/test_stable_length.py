"""The ideal stabilizes at twice the section's length.

With s the length of the longest section word, every word w is congruent
to sigma(eta(w)) modulo the kernel vectors of length at most 2s, so the
kernel, and with it the ideal, is generated at L = 2s.  These tests check
what follows without deciding ideal membership: the forward generators at
2s lead the list at every longer truncation, and over a prime field the
locus at 2s + 1 is the locus at 2s.  `check` and `compare`, which build the
ideal at min(L, 2s), print what the ideal at L gives them.
"""

import itertools
import random

import autalg
from conftest import (CORPUS, DATA, OFF_LOCUS, identity_literal, load,
                      matrix_literal)
from test_acceptance import _random_presentation
from test_cli import run
from autalg.autscheme import check_point, ideal_generators, locus_points
from autalg.errors import AutalgError, NotGenerating
from autalg.oracle import compare_locus, format_matrix, parse_matrix
from autalg.presentation import format_presentation, generation_closure, parse
from autalg.words import count_words


def stable_length(pres):
    return 2 * generation_closure(pres).max_length


def test_forward_generators_at_2s_lead_every_longer_list():
    for path in CORPUS:
        pres = load(path.name)
        stable = stable_length(pres)
        forward = ideal_generators(pres, stable, inverse=False).generators
        # p3_q over Q at 2s + 2 takes seconds
        top = stable + (1 if path.name == "p3_q.malg" else 2)
        modes = itertools.product({False, pres.degrees is not None},
                                  {False, bool(pres.fixed)}, (False, True))
        for (graded, fixed, inverse), length in itertools.product(
                modes, range(stable, top + 1)):
            got = ideal_generators(pres, length, graded=graded, fixed=fixed,
                                   inverse=inverse).generators
            assert got[:len(forward)] == forward, \
                (path.name, length, graded, fixed, inverse)


def _one_generator_dropped(pres):
    """Each presentation with one generator of pres dropped whose remaining
    generators still generate the algebra."""
    lines = format_presentation(pres).splitlines()
    at = next(k for k, line in enumerate(lines) if line.startswith("generators "))
    names = lines[at].split()[1:]
    if len(names) < 2:
        return
    for drop in range(len(names)):
        lines[at] = " ".join(["generators", *names[:drop], *names[drop + 1:]])
        smaller = parse("\n".join(lines) + "\n")
        try:
            generation_closure(smaller)
        except NotGenerating:
            continue
        yield smaller


def _locus(pres, length):
    return locus_points(ideal_generators(pres, length, inverse=False))


def test_locus_at_2s_is_the_locus_at_2s_plus_1():
    rng = random.Random(20260823)  # the acceptance-6 family
    family = [_random_presentation(rng) for _ in range(30)]
    # one drop per draw: a drop with two labels takes 0.2 s at 2s + 1 = 5
    dropped = [smaller for pres in family
               for smaller in itertools.islice(_one_generator_dropped(pres), 1)]
    corpus = [pres for pres in map(load, (p.name for p in CORPUS))
              if pres.ring.p is not None]
    cases = corpus + family + dropped
    assert any(generation_closure(pres).max_length == 2 for pres in dropped)
    for pres in cases:
        stable = stable_length(pres)
        assert _locus(pres, stable) == _locus(pres, stable + 1), \
            format_presentation(pres)


def test_the_locus_at_s_is_not_yet_stable():
    # taking s for 2s breaks the test above: on p2_f3, s = 1 and the locus
    # at L = 1 is all of GL_2(F_3)
    pres = load("p2_f3.malg")
    s = generation_closure(pres).max_length
    assert s == 1
    assert len(_locus(pres, s)) == 48
    assert len(_locus(pres, 2 * s)) == 6


def _draw(rng):
    """A random presentation over F_2, F_3 or F_5 with at most three basis
    elements, one or two product labels, no grading or a vertex or table
    grading, generators a random nonempty subset of the basis (at most two
    over F_5, so p^(N^2) <= 3^9), and at most one random fixed vector; a
    graded product lands only on basis elements of its degree."""
    p = rng.choice((2, 3, 5))
    dim = rng.randint(1, 3)
    labels = rng.sample((-1, 0, 1), rng.randint(1, 2))
    grading = rng.choice(("none", "vertex", "table"))
    degrees = [rng.randrange(3) for _ in range(dim)]
    dtable = {}
    names = ["a", "b", "c"][:dim]

    def combo(coeffs):
        return " + ".join(f"{c}*{names[k]}" for k, c in coeffs.items())

    lines = [f"ring Fp {p}", "products " + " ".join(map(str, labels)),
             f"grading {grading}"]
    lines += [f"basis {name}" + ("" if grading == "none" else f" {d}")
              for name, d in zip(names, degrees)]
    gens = rng.sample(names, rng.randint(1, min(dim, 2 if p == 5 else 3)))
    lines.append("generators " + " ".join(gens))
    if rng.random() < 0.5:
        vec = {k: c for k in range(dim) if (c := rng.randrange(p))}
        if vec:
            lines.append("fixed " + combo(vec))
    for m, i, j in itertools.product(labels, range(dim), range(dim)):
        a, b = degrees[i], degrees[j]
        if grading == "none":
            targets = range(dim)
        else:
            lam = (a + b - m - 1 if grading == "vertex"
                   else dtable.setdefault((a, m, b), rng.randrange(3)))
            targets = [k for k in range(dim) if degrees[k] == lam]
        vec = {k: rng.randrange(1, p) for k in targets if rng.random() < 0.7}
        if vec and rng.random() < 0.4:
            lines.append(f"mul {m} {names[i]} {names[j]} = {combo(vec)}")
    lines += [f"dtable {a} {m} {b} = {lam}" for (a, m, b), lam in dtable.items()]
    return parse("\n".join(lines) + "\n")


def test_compare_at_2s_is_equal_on_random_draws():
    # the paper's theorem, made finite by the stable length: over F_p the
    # locus of the forward ideal at 2s is the set of restrictions of the
    # automorphisms that preserve span(X), so compare reads equal on every
    # draw, graded and fixed ones included
    rng = random.Random(20261021)
    seen = []
    while len(seen) < 300:
        pres = _draw(rng)
        try:
            stable = stable_length(pres)
        except NotGenerating:
            continue
        # tables at 2s of at most 2,000 words keep the test near a second
        if sum(count_words(pres.universe, stable)) > 2000:
            continue
        graded = pres.degrees is not None and rng.random() < 0.7
        fixed = bool(pres.fixed)
        system = ideal_generators(pres, stable, graded=graded, fixed=fixed,
                                  inverse=False)
        report = compare_locus(pres, system)
        assert report.equal, (graded, fixed, format_presentation(pres))
        seen.append((pres.ring.p, stable // 2, pres.num_gens < pres.dim,
                     pres.grading if graded else None, fixed, report.locus_size))
    # the draws cover every field, proper generating subsets with s = 2
    # and 3, both gradings and fixed vectors, on loci larger than one point
    primes, lengths, proper, gradings, fixeds, sizes = zip(*seen)
    assert set(primes) == {2, 3, 5}
    assert {s for s, sub in zip(lengths, proper) if sub} >= {2, 3}
    assert set(gradings) >= {"vertex", "table"}
    assert any(f and size > 1 for f, size in zip(fixeds, sizes))
    assert any(g and size > 1 for g, size in zip(gradings, sizes))


def _reference(pres, command, system, point):
    """(exit code, stdout) of `check` or `compare` on a forward ideal built
    at the full truncation, or on the error that building it raised."""
    try:
        if isinstance(system, Exception):
            raise system
        if command == "check":
            ok = check_point(system, parse_matrix(point, pres.num_gens, pres.ring))
            return (0, "true\n") if ok else (1, "false\n")
        report = compare_locus(pres, system)
    except (AutalgError, ValueError):
        return 2, ""
    if report.equal:
        return 0, f"equal ({report.locus_size} points)\n"
    lines = [f"mismatch: locus {report.locus_size} points, "
             f"oracle {report.oracle_size} points"]
    lines += [f"extra: {format_matrix(m)}" for m in report.extra]
    lines += [f"missing: {format_matrix(m)}" for m in report.missing]
    return 3, "".join(line + "\n" for line in lines)


def _recording_enumerate_words(monkeypatch):
    """Wrap enumerate_words in every module that binds it; the returned list
    collects the lengths asked for."""
    asked = []
    inner = autalg.words.enumerate_words

    def recording(universe, max_length, *args, **kwargs):
        asked.append(max_length)
        return inner(universe, max_length, *args, **kwargs)

    for module in (autalg, autalg.words, autalg.freealg, autalg.autscheme, autalg.cli):
        if hasattr(module, "enumerate_words"):
            monkeypatch.setattr(module, "enumerate_words", recording)
    return asked


def test_check_and_compare_match_the_ideal_at_full_length(capsys, monkeypatch):
    asked = _recording_enumerate_words(monkeypatch)
    for path in CORPUS:
        pres = load(path.name)
        n, stable = pres.num_gens, stable_length(pres)
        reversal = matrix_literal([[int(i + j == n - 1) for j in range(n)]
                                   for i in range(n)])
        points = [identity_literal(n), reversal, OFF_LOCUS[path.name]]
        # p3_q over Q at 2s + 2 = 6 takes seconds at the full length
        top = stable + (1 if path.name == "p3_q.malg" else 2)
        for length, graded, fixed in itertools.product(
                range(1, top + 1), {False, pres.degrees is not None},
                {False, bool(pres.fixed)}):
            try:
                system = ideal_generators(pres, length, graded=graded,
                                         fixed=fixed, inverse=False)
            except AutalgError as exc:
                system = exc
            flags = ["--graded"] * graded + ["--fixed"] * fixed
            # --no-inverse changes nothing for check and compare: once per mode
            for no_inverse in ([], ["--no-inverse"])[:1 + (length == top)]:
                base = ["--input", str(path), "--max-length", str(length),
                        *flags, *no_inverse]
                runs = [("compare", [], None)] + [("check", ["--point", pt], pt)
                                                  for pt in points]
                for command, extra, point in runs:
                    del asked[:]
                    code, out, _ = run(capsys, command, *base, *extra)
                    assert (code, out) == _reference(pres, command, system, point), \
                        (command, *base, *extra)
                    if length > stable:
                        # compare over Q builds no word at all
                        assert max(asked, default=0) <= stable, \
                            (command, *base, *extra)


def test_check_and_compare_errors_at_full_length(capsys, monkeypatch):
    asked = _recording_enumerate_words(monkeypatch)
    p2, p3 = str(DATA / "p2_f3.malg"), str(DATA / "p3_f5.malg")
    cap = "error: LimitExceeded: {} words exceeds cap {}\n"
    short = ("error: TruncationTooShort: generation needs words of length 2, "
             "truncation is 1\n")
    grading = ("error: GradingViolation: graded option requires a graded "
               "presentation\n")
    for command in ("compare", "check"):
        # p2_f3 has s = 1 and 2, 4, 16, 80 words of lengths 1 to 4: every cap
        # from 6 up passes at 2s, and is judged at L
        for argv, expected in [
                (["--input", p2, "--max-length", "4", "--word-cap", "50"],
                 (4, "", cap.format(102, 50))),
                (["--input", p2, "--max-length", "4", "--word-cap", "20"],
                 (4, "", cap.format(22, 20))),
                (["--input", p3, "--max-length", "1"], (2, "", short)),
                (["--input", p2, "--max-length", "4", "--graded"], (2, "", grading)),
                # the cap is judged before the grading
                (["--input", p2, "--max-length", "4", "--graded", "--word-cap", "50"],
                 (4, "", cap.format(102, 50)))]:
            if command == "check":
                argv += ["--point", "1" if argv[1] == p3 else "1,0;0,1"]
            del asked[:]
            assert run(capsys, command, *argv) == expected, (command, *argv)
            assert max(asked, default=0) <= 2, (command, *argv)
