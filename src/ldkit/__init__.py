"""ldkit: arc-length Lagrangian descriptors for 1-DoF Hamiltonian systems.

The toolkit computes the length ell(E) of phase-space level curves (the
time-free, geometric Lagrangian descriptor), temporal Lagrangian
descriptors (trajectory arc length over a finite window), phase-space heat
maps of either quantity and of the gradient norm B, and power-law fits of
the rate at which |d ell/dE| diverges near critical energies.
"""

from ._kernels import HAVE_NUMBA, USE_NUMBA
from .errors import (
    BelowMinimum,
    DegenerateFit,
    EmptyLadder,
    InvalidInterval,
    LdkitError,
    NonFiniteEnergy,
    OutsideDomain,
    StraddlesCritical,
    TruncationInsideDomain,
    TruncationRequired,
    TurningPoint,
)
from .geometric import Landscape, dell_dE, ell, ell_batch, landscape, ray_arc_factor
from .maps import (
    GridMap,
    GridSpec,
    b_map,
    ell_map,
    energy_map,
    read_grid_csv,
    read_landscape_csv,
    temporal_map,
    write_grid_csv,
    write_landscape_csv,
    write_pgm,
)
from .models import (
    REGULAR,
    TRUNCATION,
    TURNING,
    EnergyDomain,
    HamiltonianModel,
    Truncation,
    duffing,
    fishtail,
    get_model,
    harmonic_oscillator,
    harmonic_repulsor,
    mechanical,
    MODEL_NAMES,
    pendulum,
)
from .quadrature import (
    IntervalLength,
    QuadratureConfig,
    arclength_interval,
    polyline_oracle,
)
from .rates import (
    RateFit,
    RateLadder,
    RateSample,
    fit_power_law,
    rate_report,
    sample_rates,
)
from .temporal import (
    IntegratorConfig,
    LdLine,
    LdResult,
    LineSpec,
    ld_landscape_line,
    temporal_ld,
)

__version__ = "0.1.0"
