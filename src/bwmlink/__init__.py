"""Exact two-variable Kauffman link invariants of braid closures, computed
through the trace of the braid tangle algebra, with the Young-lattice level
structure, trace weights and the one-variable specializations."""

from .braid import (BraidParseError, BraidWord, closure_diagram,
                    closure_permutation, component_count, conjugate,
                    exponent_sum, free_reduce, isotopy_moves, parse_braid,
                    stabilize)
from .bratteli import (BratteliGraph, bmw_level, bratteli_dot, bratteli_json,
                       conjugate as conjugate_shape, d_stat, generic_bratteli,
                       hook_length, matrix_unit_trace, path_pair_count,
                       enumerate_paths, shape_label, sign_identity_check,
                       specialized_weights_equal, sum_rule_check,
                       survives_truncation, trace_weight, truncated_bratteli,
                       truncation_rule, young_level)
from .closed_forms import (GeneratorPower, generator_power,
                           generator_power_trace, parity_check,
                           symmetry_check, torus2_invariant)
from .diagram import PlanarDiagram
from .laurent import (DELTA, X_NUM, LaurentPoly1, LaurentPoly2, LocalizedPoly,
                      QFraction, Quotient, RationalFn2, Specialization,
                      flip_vars, loop_value, one_var_equal, quantum_dimension,
                      r_pow, s_pow, specialize)
from .skein import (SkeinEngine, kauffman_polynomial, osp_invariant,
                    regular_isotopy_poly, so_invariant)

__version__ = "0.1.0"

__all__ = [
    "BraidParseError", "BraidWord", "BratteliGraph", "DELTA",
    "GeneratorPower", "LaurentPoly1", "LaurentPoly2", "LocalizedPoly",
    "PlanarDiagram", "QFraction", "Quotient", "RationalFn2", "SkeinEngine",
    "Specialization", "X_NUM", "bmw_level", "bratteli_dot", "bratteli_json",
    "closure_diagram", "closure_permutation", "component_count", "conjugate",
    "conjugate_shape", "d_stat", "exponent_sum", "flip_vars", "free_reduce",
    "enumerate_paths", "generator_power", "generator_power_trace",
    "generic_bratteli", "hook_length", "isotopy_moves", "kauffman_polynomial",
    "loop_value", "matrix_unit_trace",
    "one_var_equal", "osp_invariant", "parity_check", "parse_braid",
    "path_pair_count", "quantum_dimension", "r_pow", "regular_isotopy_poly",
    "s_pow", "shape_label", "sign_identity_check", "so_invariant",
    "specialize", "specialized_weights_equal", "stabilize", "sum_rule_check",
    "survives_truncation", "symmetry_check", "torus2_invariant",
    "trace_weight", "truncated_bratteli", "truncation_rule", "young_level",
]
