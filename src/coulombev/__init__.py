"""Exact Coulomb bound-state expectation values in D = 3 and D = 3 - 2 eps.

The package computes the catalog of hydrogenic expectation values and
momentum-space brackets exactly (arbitrary-precision rationals plus a small
symbolic constant basis) and dimensionally regularized S-state values as
Laurent series in eps, cross-verified by independent integration oracles.

`import coulombev` loads none of its layers: each public name below is
imported from its submodule on first use (PEP 562), so a caller pays only
for the layers it touches, and numpy loads only with the float layer.
"""

from importlib import import_module

__version__ = "1.0.0"

# submodule -> the public names it defines
_LAYERS = {
    "exactnum": "DivergenceError DomainError EpsSeries SymExpr diharmonic harmonic",
    "laguerre": "Poly assoc_laguerre gegenbauer subtract_laguerre",
    "lagint": "MomentSpec brute_force_moment integral_I integral_J integral_K integral_L integral_M",
    "coulomb": "MomentumRadialWF PhysScale QuantumState Value catalog_tags cx1_energy_shift"
    " expectation_closed expectation_oracle feynman_hellmann_residual power_moment recursion_residual",
    "dimreg": "DivergentValue contact_expansion divergent_expectation divergent_tags"
    " energy_expansion identity_residuals series_coefficients",
    "brackets": "bracket bracket_lnq bracket_tags fourier_kernel",
    "shoot": "eigenvalue_shoot bracket_lnq_oracle",
}
_HOME = {name: module for module, names in _LAYERS.items() for name in names.split()}
__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOME:
        return getattr(import_module("." + _HOME[name], __name__), name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted({*globals(), *__all__})
