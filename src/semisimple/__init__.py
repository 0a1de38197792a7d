"""Exact-arithmetic calculator for diagram categories, modular Jordan
blocks, Verlinde fusion rings, and their tensor-power growth invariants."""

from .scalars import (
    CapExceeded,
    DomainError,
    FpScalar,
    T,
    TPolynomial,
    exact_det,
    exact_rank,
    is_prime,
    q_int,
)
from .partitions import Partition, dim_schur, dim_sym_irrep, enumerate_in_box
from .brauer import (
    BiObject,
    DiagramMorphism,
    WalledDiagram,
    algebra_is_semisimple,
    braiding,
    compose,
    endomorphism_trace_form,
    gram_matrix,
    hom_basis,
    identity,
    negligible_rank,
    schur_weyl_homdim,
    tensor,
    trace,
)
from .modrep import (
    JordanModule,
    ext2,
    exterior_power,
    jordan_tensor,
    jordan_type,
    non_negligible_part,
    sym2,
    to_verlinde,
)
from .verlinde import (
    FusionElement,
    cat_dim,
    fp_dim,
    fusion,
    fusion_table,
    in_plus_subring,
    is_invertible,
    product,
)
from .growth import (
    GrowthRate,
    GrowthReport,
    ImprovedBound,
    PadicDigits,
    exterior_dimension_sequence,
    growth_rate,
    improved_bound,
    invariant_report,
    module_growth_rate,
    padic_digits,
    plancherel_bound,
    plancherel_square_sum,
    recover_multiplicities,
    square_difference_vector,
    tensor_power_length,
)

__version__ = "0.1.0"
