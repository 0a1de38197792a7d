"""Exact-arithmetic calculator for diagram categories, modular Jordan
blocks, Verlinde fusion rings, and their tensor-power growth invariants.

The public names below are read from their submodules on first access
(PEP 562), so `import semisimple`, like each CLI request, loads only the
modules it uses.
"""

import importlib

__version__ = "0.1.0"

#: The public names each submodule defines.
_EXPORTS = {
    "scalars": "CapExceeded DomainError FpScalar is_prime q_int",
    "exact": "T TPolynomial exact_det exact_rank",
    "partitions": "box_partitions box_square_sum box_walk dimensions",
    "brauer": "BiObject DiagramMorphism WalledDiagram algebra_is_semisimple braiding compose "
              "endomorphism_trace_form gram_matrix hom_basis identity negligible_rank schur_weyl_homdim "
              "tensor trace",
    "modrep": "JordanModule ext2 exterior_power jordan_tensor jordan_type non_negligible_part sym2 to_verlinde",
    "verlinde": "FusionElement cat_dim fp_dim fusion fusion_table in_plus_subring is_invertible product",
    "growth": "GrowthRate GrowthReport ImprovedBound PadicDigits exterior_dimension_sequence growth_rate "
              "improved_bound invariant_report module_growth_rate padic_digits plancherel_bound "
              "plancherel_square_sum recover_multiplicities square_difference_vector tensor_power_length",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule not imported yet
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
