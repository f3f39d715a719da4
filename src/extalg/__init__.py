"""Exact Grassmann (exterior) algebra toolkit.

Elements of E(n) over the rationals or GF(p), p odd, with generator-split
monomialization of subspaces, initial spans, a skew pairing on the odd
part, maximal-commutative-subalgebra machinery, and an independent
intersecting-family search that certifies the dimension formula.

`import extalg` loads no submodule.  A name in `__all__` imports the
module that defines it when it is first used, and `extalg.<submodule>`
does the same, so a program pays only for the modules it touches.
Nothing is cached here: `extalg.X is extalg.<module>.X` at every moment.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# every submodule -> the names the package exports from it
_EXPORTS = {
    "cli": (),
    "core": (
        "AmbientMismatch", "GrassmannElement", "Monomial", "compare_monomials", "generator", "monomial",
        "unit", "zero",
    ),
    "fields": ("QQ", "FpElement", "PrimeField", "Rationals", "field_by_name"),
    "setfamilies": (
        "DEFAULT_BUDGET", "SearchBudgetExceeded", "SearchResult", "SetFamily", "all_odd_masks", "ekr_max",
        "enumerate_max_odd_intersecting", "is_intersecting", "is_odd_family", "max_odd_intersecting",
        "odd_upper_levels", "star", "two_level_max", "two_level_maxima",
    ),
    "structure": (
        "AlgebraHom", "StructureReport", "analyze", "assemble", "canonical_max_commutative", "graded_radical",
        "hom_from_images", "is_commutative", "is_e0_submodule", "is_left_ideal", "is_maximal_commutative",
        "is_right_ideal", "is_square_zero", "is_subalgebra", "max_commutative_dim", "plucker_defects",
        "radical_quotient_dim", "upper_levels_commutative",
    ),
    "subspace": (
        "Subspace", "even_space", "family_space", "full_space", "grade_space", "hilbert_series",
        "initial_span", "min_degree_space", "monomial_family", "monomial_space", "monomial_supports",
        "monomialize", "odd_space", "perp", "product_span", "skew_form", "span", "split_generator",
        "star_space", "zero_space",
    ),
    "text": (
        "ParseError", "parse_element", "parse_expression", "print_element", "read_subspace", "write_subspace",
    ),
    "verify": ("CheckResult", "run_checks"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _MODULE_OF:
        return getattr(_import_module("." + _MODULE_OF[name], __name__), name)
    if name in _EXPORTS:
        return _import_module("." + name, __name__)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF) | set(_EXPORTS))
