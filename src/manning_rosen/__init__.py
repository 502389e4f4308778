"""Bound states of the D-dimensional Manning-Rosen potential.

Closed-form spectra and normalized wavefunctions, cross-validated by an
independent finite-difference eigensolver of the radial equation.  The
eigensolver (``oracle``, the one module that needs SciPy) is imported on
first use of one of its names.
"""

from .errors import (ConvergenceError, DomainError, LabelError, NoMinimumError,
                     NormalizationError, UnboundStateError)
from .model import (CentrifugalMode, PotentialParams, QuantumState,
                    effective_potential, potential_curvature, potential_minimum,
                    potential_value)
from .specfun import QuadratureRule, gauss_legendre, jacobi, ln_gamma
from .spectrum import (SpectrumEntry, bound_states, coulomb_limit_energy,
                       critical_coupling, degenerate_partners, energy,
                       epsilon_parameter, hulthen_energy, parse_spectroscopic,
                       screened_coulomb_coupling, shape_parameter, state_label)
from .wavefun import (AngularMultiIndex, RadialSolution, angular_factor,
                      normalization_closed_form, normalization_quadrature,
                      radial_wavefunction, total_wavefunction)

__version__ = "0.1.0"

__all__ = [
    "AngularMultiIndex",
    "AuditResult",
    "CentrifugalMode",
    "ConvergenceError",
    "DomainError",
    "LabelError",
    "LogRadialGrid",
    "NoMinimumError",
    "NormalizationError",
    "OracleResult",
    "PotentialParams",
    "QuadratureRule",
    "QuantumState",
    "RadialSolution",
    "SpectrumEntry",
    "UnboundStateError",
    "angular_factor",
    "approximation_audit",
    "bound_states",
    "coulomb_limit_energy",
    "critical_coupling",
    "default_grid",
    "degenerate_partners",
    "effective_potential",
    "energy",
    "epsilon_parameter",
    "gauss_legendre",
    "hulthen_energy",
    "jacobi",
    "ln_gamma",
    "normalization_closed_form",
    "normalization_quadrature",
    "oracle_energy",
    "parse_spectroscopic",
    "potential_curvature",
    "potential_minimum",
    "potential_value",
    "radial_wavefunction",
    "screened_coulomb_coupling",
    "shape_parameter",
    "solve_radial",
    "state_label",
    "sturm_count",
    "total_wavefunction",
]


_ORACLE_NAMES = frozenset({"AuditResult", "LogRadialGrid", "OracleResult",
                           "approximation_audit", "default_grid", "oracle_energy",
                           "solve_radial", "sturm_count"})


def __getattr__(name: str):
    """Serve the oracle's names, importing it (and SciPy) on first use (PEP 562)."""
    if name not in _ORACLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import oracle

    value = globals()[name] = getattr(oracle, name)
    return value
