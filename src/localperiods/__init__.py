"""Verification library for explicit local period identities on p-adic
unitary groups: exact quadratic-extension arithmetic, Whittaker torus
values, local L-factor products, congruence-subgroup volumes, transfer
factors, rank-one orbital integrals, and the closed-form assembly of the
two local characters they tie together."""

from .assembly import PairData, ParityError, i_assembled, i_closed, j_main, j_via_bridge
from .hermitian import (
    EMat,
    NonRegularError,
    cayley,
    cayley_inv,
    det_stack_identity_check,
    herm_form_j,
    iota_c,
    is_regular_semisimple,
    matching_invariants,
    r_map,
    transfer_factor,
)
from .lfactors import (
    LocalLFactor,
    PoleError,
    asai_cancellation_check,
    asai_lfactor,
    pair_dual_lfactor,
    rs_lfactor,
)
from .numerics import (
    QuadExt,
    Rat,
    padic_valuation,
    qe_valuation,
    validate_field_context,
)
from .orbital import fl_check_rank1, match_rank1, orb_s2, orb_u2, rank_one_element
from .periods import (
    beta_closed,
    beta_spherical_closed,
    beta_spherical_truncated,
    beta_truncated,
    lambda_closed,
    lambda_truncated,
    theta_closed,
    theta_truncated,
)
from .report import VerificationReport
from .reps import GenericRep, RamCusp, SatakeSet, Segment, UnramChar, is_conjugate_selfdual
from .symfunc import delta_weight, macdonald_closed, macdonald_sum, schur
from .volumes import (
    c1,
    constant_c_main,
    vol_gl,
    vol_gl_formula,
    vol_k0,
    vol_kprime_c,
    vol_u_lie,
    vol_unitary_v,
    vol_unitary_w,
)
from .whittaker import essential_value, spherical_value

__version__ = "0.1.0"

__all__ = [
    "EMat",
    "GenericRep",
    "LocalLFactor",
    "NonRegularError",
    "PairData",
    "ParityError",
    "PoleError",
    "QuadExt",
    "RamCusp",
    "Rat",
    "SatakeSet",
    "Segment",
    "UnramChar",
    "VerificationReport",
    "asai_cancellation_check",
    "asai_lfactor",
    "beta_closed",
    "beta_spherical_closed",
    "beta_spherical_truncated",
    "beta_truncated",
    "c1",
    "cayley",
    "cayley_inv",
    "constant_c_main",
    "delta_weight",
    "det_stack_identity_check",
    "essential_value",
    "fl_check_rank1",
    "herm_form_j",
    "i_assembled",
    "i_closed",
    "iota_c",
    "is_conjugate_selfdual",
    "is_regular_semisimple",
    "j_main",
    "j_via_bridge",
    "lambda_closed",
    "lambda_truncated",
    "macdonald_closed",
    "macdonald_sum",
    "match_rank1",
    "matching_invariants",
    "orb_s2",
    "orb_u2",
    "padic_valuation",
    "pair_dual_lfactor",
    "qe_valuation",
    "r_map",
    "rank_one_element",
    "rs_lfactor",
    "schur",
    "spherical_value",
    "theta_closed",
    "theta_truncated",
    "transfer_factor",
    "validate_field_context",
    "vol_gl",
    "vol_gl_formula",
    "vol_k0",
    "vol_kprime_c",
    "vol_u_lie",
    "vol_unitary_v",
    "vol_unitary_w",
]
