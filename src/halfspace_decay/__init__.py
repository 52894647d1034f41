"""Numerical machinery for decay of transverse-periodic elliptic problems.

Subpackages cover exact lattice and quadratic-form arithmetic, fiber-operator
spectra and gap statistics, a discretised Bloch decomposition, weighted
inequality verification on finite spectral truncations, an elliptic-evolution
solver with decay-rate estimation, and a deterministic CLI harness.
"""

__version__ = "0.1.0"  # before the submodules: manifest.json records it

from .errors import (
    BudgetExceededError,
    DegenerateLatticeError,
    FormArityError,
    GridError,
    HalfspaceDecayError,
    PreconditionError,
    RationalityRequiredError,
    ResolutionError,
    SchemaError,
    SolverError,
    VerificationError,
)
from .lattice import (
    Lattice,
    QuadraticForm,
    Quasimomentum,
    dual_basis,
    rational_structure,
    unit_cell_volume,
)
from .spectrum import (
    Gap,
    SpectrumSlice,
    density_scan,
    enumerate_spectrum,
    find_gaps,
    max_gap_growth,
    progression_containment,
)
from .fields import SampledField, load_field, save_field
from .fibers import (
    BlochFiber,
    fiber_residual,
    gelfand_forward,
    gelfand_inverse,
    theta_grid,
)
from .profiles import SpectralProfile, bump_profile, zero_profile
from .carleman import (
    CarlemanReport,
    conjugation_identity_check,
    ellreg_bound_check,
    first_order_system_check,
    verify_carleman_43,
    verify_carleman_gap,
    weight_sign_check,
)
from .evolution import (
    DecayEstimate,
    PerturbationFamily,
    decay_rate_estimate,
    harmonic_counterexample,
    harmonicity_check,
    rate_spectrum_scan,
    solve_decaying,
)
from .runconfig import RunConfig
from .manifest import RunManifest
from .pipeline import run_pipeline
