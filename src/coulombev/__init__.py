"""Exact Coulomb bound-state expectation values in D = 3 and D = 3 - 2 eps.

The package computes the catalog of hydrogenic expectation values and
momentum-space brackets exactly (arbitrary-precision rationals plus a small
symbolic constant basis) and dimensionally regularized S-state values as
Laurent series in eps, cross-verified by independent integration oracles.
"""

from .exactnum import (
    DivergenceError,
    DomainError,
    EpsSeries,
    SymExpr,
    diharmonic,
    gamma_ratio_limit,
    harmonic,
    hypergeometric_2f1_unit,
    hypergeometric_f_expansion,
    polygamma_int,
)
from .laguerre import Poly, assoc_laguerre, gegenbauer, subtract_laguerre
from .lagint import (
    MomentSpec,
    brute_force_moment,
    integral_I,
    integral_J,
    integral_K,
    integral_L,
    integral_M,
)
from .coulomb import (
    MomentumRadialWF,
    OperatorSpec,
    PhysScale,
    QuantumState,
    Value,
    catalog_tags,
    cx1_energy_shift,
    expectation_closed,
    expectation_oracle,
    feynman_hellmann_residual,
    power_moment,
    radial_wavefunction,
    recursion_residual,
)
from .dimreg import (
    DivergentValue,
    EpsParam,
    SplitWF,
    contact_expansion,
    divergent_expectation,
    divergent_tags,
    energy_expansion,
    identity_residuals,
    series_coefficients,
    split_wavefunction,
)
from .brackets import bracket, bracket_lnq, bracket_tags, fourier_kernel

__version__ = "1.0.0"


def __getattr__(name):
    # PEP 562: the float layer loads numpy on first use only
    if name in ("eigenvalue_shoot", "bracket_lnq_oracle"):
        from . import shoot

        return getattr(shoot, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
