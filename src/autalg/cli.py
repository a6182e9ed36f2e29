"""Command-line front end.

Exit codes: 0 success (and `check` true), 1 `check` false, 2 input or
validation error, 3 comparison mismatch, 4 budget or limit exceeded or
memory exhausted, 141 stdout closed by its reader (128 + SIGPIPE).
Results go to stdout, diagnostics to stderr; output is byte-deterministic
for fixed input and flags.  `check` and `compare` build the ideal at
min(L, 2s), s the length of the longest section word: from 2s on the ideal
does not change, so neither do their verdicts; `--word-cap` is judged at L.
"""

from __future__ import annotations

import argparse
import os
import sys

from .autscheme import check_point, ideal_generators
from .errors import AutalgError, BadPrime, BudgetExceeded, LimitExceeded
from .oracle import (DEFAULT_BUDGET, compare_locus, enumerate_automorphisms,
                     format_matrix, parse_matrix)
from .poly import format_polys
from .presentation import generation_closure, parse_file
from .words import DEFAULT_WORD_CAP, count_words, enumerate_words, format_word


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="autalg",
        description="Defining equations of automorphism group schemes of "
                    "finitely presented multi-product algebras.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, length=True):
        p.add_argument("--input", required=True, help="presentation file")
        if length:
            p.add_argument("--max-length", type=int, required=True,
                           help="word-length truncation (>= 1)")

    p = sub.add_parser("enumerate", help="print the truncated word table")
    common(p)
    p.add_argument("--word-cap", type=int, default=DEFAULT_WORD_CAP)

    for name in ("ideal", "check", "compare"):
        p = sub.add_parser(name)
        common(p)
        p.add_argument("--graded", action="store_true")
        p.add_argument("--fixed", action="store_true")
        p.add_argument("--no-inverse", action="store_true")
        p.add_argument("--word-cap", type=int, default=DEFAULT_WORD_CAP)
        if name == "check":
            p.add_argument("--point", required=True,
                           help="matrix literal, rows ';'-separated, entries ','-separated")
        if name == "compare":
            p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
            p.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("oracle", help="enumerate automorphisms by brute force")
    common(p, length=False)
    p.add_argument("--graded", action="store_true")
    p.add_argument("--fixed", action="store_true")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--workers", type=int, default=1)
    return top


def _run(args) -> int:
    pres = parse_file(args.input)
    if args.command != "oracle" and args.max_length < 1:
        raise ValueError("--max-length must be >= 1")
    for name in ("word_cap", "budget", "workers"):
        if getattr(args, name, 1) < 1:
            raise ValueError(f"--{name.replace('_', '-')} must be >= 1")
    if args.command == "compare" and pres.ring.p is None:
        # the locus scan needs a prime field: fail before anything is built
        raise ValueError("locus enumeration requires a prime field")

    if args.command == "enumerate":
        table = enumerate_words(pres.universe, args.max_length, args.word_cap)
        names = [pres.basis[i] for i in pres.gens]
        for w in table.words:
            print(format_word(w, names))
        return 0

    if args.command == "oracle":
        autos = enumerate_automorphisms(pres, graded=args.graded,
                                        fixed=args.fixed, budget=args.budget,
                                        workers=args.workers)
        for g in autos.autos:
            print(format_matrix(g))
        return 0

    if args.command == "check":
        # a malformed point fails before the ideal is built
        try:
            point = parse_matrix(args.point, pres.num_gens, pres.ring)
        except (ValueError, BadPrime) as exc:
            raise type(exc)(f"bad --point literal: {exc.args[0]}") from None

    length = args.max_length
    if args.command != "ideal":
        # the ideal at L >= 2s is the ideal at 2s, and a verdict reads only
        # its zeros; the word cap still holds at L, and below L = s
        # ideal_generators raises TruncationTooShort
        stable = 2 * generation_closure(pres, args.word_cap).max_length
        if length > stable:
            count_words(pres.universe, length, args.word_cap)
            length = stable

    # on GL_N the forward block implies the inverse one: only `ideal` prints it
    system = ideal_generators(pres, length, graded=args.graded,
                              fixed=args.fixed, cap=args.word_cap,
                              inverse=args.command == "ideal" and not args.no_inverse)

    if args.command == "ideal":
        print(system.meta_line())
        for line in format_polys(system.generators):
            print(line)
        return 0

    if args.command == "check":
        ok = check_point(system, point)
        print("true" if ok else "false")
        return 0 if ok else 1

    # compare
    report = compare_locus(pres, system, budget=args.budget, workers=args.workers)
    if report.equal:
        print(f"equal ({report.locus_size} points)")
        return 0
    print(f"mismatch: locus {report.locus_size} points, "
          f"oracle {report.oracle_size} points")
    for mat in report.extra:
        print(f"extra: {format_matrix(mat)}")
    for mat in report.missing:
        print(f"missing: {format_matrix(mat)}")
    return 3


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has gone: what is still buffered goes to devnull, so
        # that the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (LimitExceeded, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 4
    except (AutalgError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
