"""Defining equations of automorphism group schemes of finitely presented
multi-product algebras, certified against brute-force enumeration over small
prime fields."""

from .autscheme import (IdealSystem, KernelBasis, check_point, generic_image,
                        ideal_generators, kernel_basis, locus_points)
from .errors import AutalgError
from .freealg import eta_evaluate, eta_matrix, m_product
from .oracle import (AutoSet, ComparisonReport, compare_locus,
                     enumerate_automorphisms)
from .poly import Polynomial, adjugate, determinant, format_poly, parse_poly
from .presentation import (Presentation, SectionData, base_change,
                           format_presentation, generation_closure, parse,
                           parse_file)
from .rings import GF, QQ, Ring, reduce_mod_p
from .words import Universe, Word, WordTable, enumerate_words

__all__ = [
    "AutalgError", "AutoSet", "ComparisonReport", "GF", "IdealSystem",
    "KernelBasis", "Polynomial", "Presentation", "QQ", "Ring", "SectionData",
    "Universe", "Word", "WordTable", "adjugate", "base_change", "check_point",
    "compare_locus", "determinant", "enumerate_automorphisms",
    "enumerate_words", "eta_evaluate", "eta_matrix", "format_poly",
    "format_presentation", "generation_closure", "generic_image",
    "ideal_generators", "kernel_basis", "locus_points", "m_product", "parse",
    "parse_file", "parse_poly", "reduce_mod_p",
]
