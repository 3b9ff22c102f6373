"""Exact two-variable Kauffman link invariants of braid closures, computed
through the trace of the braid tangle algebra, with the Young-lattice level
structure, trace weights and the one-variable specializations."""

from .braid import (BraidParseError, BraidWord, closure_diagram,
                    closure_permutation, component_count, conjugate,
                    exponent_sum, free_reduce, isotopy_moves, parse_braid,
                    stabilize)
from .bratteli import (BratteliGraph, bmw_level, bratteli_dot, bratteli_json,
                       enumerate_paths, generic_bratteli, path_pair_count,
                       shape_label, sign_identity_check,
                       specialized_weights_equal, sum_rule_check,
                       survives_truncation, trace_weight, truncated_bratteli,
                       truncation_rule, young_level)
from .closed_forms import torus2_invariant
from .diagram import PlanarDiagram
from .laurent import (DELTA, X_NUM, LaurentPoly1, LaurentPoly2, LocalizedPoly,
                      QFraction, Quotient, RationalFn2, Specialization,
                      loop_value, one_var_equal, quantum_dimension, r_pow,
                      s_pow, specialize)
from .skein import (SkeinEngine, kauffman_polynomial, osp_invariant,
                    so_invariant)

__version__ = "0.1.0"

__all__ = [
    "BraidParseError", "BraidWord", "BratteliGraph", "DELTA", "LaurentPoly1",
    "LaurentPoly2", "LocalizedPoly", "PlanarDiagram", "QFraction", "Quotient",
    "RationalFn2", "SkeinEngine", "Specialization", "X_NUM", "bmw_level",
    "bratteli_dot", "bratteli_json", "closure_diagram", "closure_permutation",
    "component_count", "conjugate", "enumerate_paths", "exponent_sum",
    "free_reduce", "generic_bratteli", "isotopy_moves", "kauffman_polynomial",
    "loop_value", "one_var_equal", "osp_invariant", "parse_braid",
    "path_pair_count", "quantum_dimension", "r_pow", "s_pow", "shape_label",
    "sign_identity_check", "so_invariant", "specialize",
    "specialized_weights_equal", "stabilize", "sum_rule_check",
    "survives_truncation", "torus2_invariant", "trace_weight",
    "truncated_bratteli", "truncation_rule", "young_level",
]
