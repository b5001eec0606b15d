"""Repeated-measurement dynamics and thermodynamics of small open quantum systems."""

from .errors import (
    ConfigError,
    DegenerateSteadyStateError,
    DimensionError,
    NumericError,
    PositivityError,
    PreconditionError,
    QthermError,
    SizeLimitError,
)
from .qcore import (
    DensityMatrix,
    Operator,
    Propagator,
    StateVector,
    relative_entropy,
    trace_distance,
    von_neumann_entropy,
)
from .models import (JcmParams, JointSystem, build_jcm, thermal_populations, thermal_state,
                     validate_coupling)
from .engine import (
    EnsembleSummary,
    IntervalRun,
    MeasurementOutcome,
    ProcessConfig,
    run_process,
    sample_interval,
    step_interval,
)
from .thermo import (
    IntervalLedger,
    approx_heat_small_change,
    s_tot,
    second_law_suite,
    traditional_qw,
)
from .generators import (
    GeneratorSpec,
    SteadyStateResult,
    decompose,
    fast_map,
    four_state_rate,
    lindblad_propagate,
    min_temp_predict,
    steady_state,
    weak_map,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
