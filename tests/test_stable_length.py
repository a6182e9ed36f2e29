"""The ideal stabilizes at twice the section's length.

With s the length of the longest section word, every word w is congruent
to sigma(eta(w)) modulo the kernel vectors of length at most 2s, so the
kernel, and with it the ideal, is generated at L = 2s.  These tests check
what follows without deciding ideal membership: the forward generators at
2s lead the list at every longer truncation, and over a prime field the
locus at 2s + 1 is the locus at 2s.
"""

import itertools
import random

from conftest import CORPUS, load
from test_acceptance import _random_presentation
from autalg.autscheme import ideal_generators, locus_points
from autalg.errors import NotGenerating
from autalg.presentation import format_presentation, generation_closure, parse


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
