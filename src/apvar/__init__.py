"""Divisor-function statistics in arithmetic progressions.

Exact sieves of the k-fold divisor function, log-polynomial main terms
extracted from residues at s=1, variance over residue classes and moduli,
and the Farey dissection of the unit interval, with verification suites
for the identities tying them together.
"""

from .arith import (
    d_k_of,
    divisors,
    euler_phi,
    factorize,
    mobius,
    ramanujan_sum,
)
from .errors import DomainError, ResourceError
from .farey import (
    ContainmentReport,
    FareyArc,
    denominator_counts,
    dissection,
    verify_containment,
)
from .residues import (
    ap_main_term,
    correction_value_at,
    eval_logpoly,
    f_star,
    local_correction_series,
    m_poly,
    zeta_power_series,
)
from .sieve import (
    DkTable,
    ExpSumValue,
    ResidueClassSums,
    ap_sums,
    exp_sum,
    read_table,
    sieve_dk,
    square_sum,
    total_sum,
    write_table,
)
from .stats import (
    DeltaValue,
    GrowthStudy,
    VarianceReport,
    delta_value,
    density_square_sum_check,
    deviation_decay_slope,
    dirichlet_sums,
    growth_study,
    parseval_check,
    variance_expansion_check,
    variance_total,
)

__version__ = "0.1.0"
