"""Semiclassical moment dynamics: Weyl-ordered moment algebra, truncated
equation-of-motion hierarchies, adiabatic effective equations, squeezed
state formulas, and a truncated-basis quantum oracle for validation.
"""

from .errors import (
    AdiabaticBreakdownError,
    CapacityError,
    ClosureError,
    ConfigError,
    DegenerateStateError,
    DomainError,
    MomentflowError,
    RangeError,
    ReconstructionError,
    StateError,
    UnsupportedProviderError,
)
from .moment_algebra import (
    GaussianDProvider,
    MomentIndex,
    MomentPolynomial,
    SemiclassicalState,
    SymplecticMatrix,
    bracket_general,
    bracket_moments,
    check_uncertainty_generating,
    check_uncertainty_order2,
    gaussian_moment,
    gaussian_pairings,
    kk_coefficient,
    moment_indices,
    moment_vars,
)
from .hamiltonian import (
    ClassicalHamiltonian,
    EquationSystem,
    PotentialSpec,
    QuantumHamiltonian,
    closure_apply,
    expand_quantum_hamiltonian,
    from_dimensionless,
    generate_eom,
    to_dimensionless,
)
from .dynamics import (
    CosmologyParams,
    FreeConstantEmbedding,
    HarmonicCoherentEmbedding,
    HarmonicModeConstants,
    OrderCheckResult,
    Trajectory,
    coherent_free_constants,
    coherent_tilde_moment,
    cosmology_effective_rhs,
    cosmology_g_solution,
    cosmology_moment_rates,
    cosmology_moments,
    free_particle_moments,
    harmonic_analytic,
    integrate,
    order_check,
)
from .adiabatic import (
    AdiabaticConfig,
    AdiabaticEmbedding,
    EffectiveCoefficients,
    effective_coefficients,
    g0_moments,
    g1_correction,
    g2_correction,
    solve_effective,
)
from .states import (
    PulledBackForm,
    SqueezeMatrix,
    omega_pullback,
    rho_element,
    rho_matrix,
    squeezed_moment,
    squeezed_moments,
)

__version__ = "0.1.0"
