"""Generalized elliptic integrals, the generalized modulus, and friends.

Evaluation of the Gauss hypergeometric function F(a,b;c;z) on [0,1),
the generalized complete elliptic integrals K_{a,b,c} and E_{a,b,c},
the Legendre-type M function, the generalized modulus mu_{a,b,c} with its
inverse and modular function phi_K, plus a declarative verification engine
for the monotonicity/convexity/inequality properties these objects satisfy.
"""

from .errors import (
    ConvergenceError,
    DomainError,
    GenellipError,
    ParameterError,
    PoleError,
    SaturationError,
)
from .result import EvalResult, Method
from .scalar_special import (
    beta,
    beta_ln,
    digamma,
    gamma,
    gamma_ln,
    ramanujan_r,
)
from .hypergeom import (
    HypParams,
    hyp2f1,
    hyp2f1_pair,
)
from .elliptic import (
    EllDerivatives,
    EllipticParams,
    Modulus,
    arth,
    ell_derivatives,
    ell_e,
    ell_e_comp,
    ell_e_minus_rc2k,
    ell_k,
    ell_k_comp,
    ell_k_minus_e,
)
from .legendre_m import (
    MPoint,
    m_deriv,
    m_scaled,
    m_scaled_limit,
    m_value,
    m_value_elliptic,
)
from .modulus import (
    DegreeK,
    ModulusParams,
    modulus_params_ac,
    mu,
    mu_deriv,
    mu_deriv_closed,
    mu_inv,
    mu_inv_m,
    mu_m,
    p_logit,
    phi_deriv,
    phi_deriv_closed,
    phi_k,
    phi_k_m,
    phi_logodds,
    q_modulus,
)

__version__ = "0.1.0"

__all__ = [
    "GenellipError", "DomainError", "ParameterError", "PoleError",
    "SaturationError", "ConvergenceError",
    "EvalResult", "Method",
    "gamma", "gamma_ln", "digamma", "beta", "beta_ln", "ramanujan_r",
    "HypParams", "hyp2f1", "hyp2f1_pair",
    "EllipticParams", "Modulus", "arth",
    "ell_k", "ell_e", "ell_k_comp", "ell_e_comp",
    "ell_k_minus_e", "ell_e_minus_rc2k", "ell_derivatives", "EllDerivatives",
    "MPoint", "m_value", "m_value_elliptic", "m_scaled", "m_deriv", "m_scaled_limit",
    "ModulusParams", "modulus_params_ac", "DegreeK",
    "mu", "mu_m", "mu_inv", "mu_inv_m", "phi_k", "phi_k_m",
    "mu_deriv", "phi_deriv", "mu_deriv_closed", "phi_deriv_closed",
    "q_modulus", "p_logit", "phi_logodds",
]
