"""tracelab: a numerical laboratory for trace identities.

Discretize symmetric integral kernels on [0,1], compute their spectra,
and verify at desk scale that the sum of eigenvalues equals the integral
of the kernel diagonal — then push the same idea through the Basel sum,
uniform kernel reconstruction, the heat-trace/theta identity, and the
wave-trace/billiard-length correspondence on rectangles.
"""

import types

from .billiard import (
    ClosedOrbit,
    LengthSpectrum,
    Table,
    Trajectory,
    disc,
    is_closed,
    length_spectrum,
    rectangle,
    simulate,
)
from .heat import (
    HeatTraceReport,
    ThetaEvaluation,
    heat_evolve,
    heat_trace_check,
    theta,
    theta_transform_residual,
)
from .kernels import (
    KernelSpec,
    diagonal_trace,
    eval_green,
    eval_heat_periodic,
    green_dirichlet,
    heat_circle,
    tabulated,
)
from .linalg import (
    EigenDecomposition,
    NumericalError,
    SymMatrix,
    eigh_eigen,
    jacobi_eigen,
    matrix_trace_identity,
)
from .mercer import (
    BaselReport,
    MercerReport,
    basel_via_trace,
    mercer_reconstruct,
    trace_chain_check,
)
from .nystrom import (
    OperatorSpectrum,
    TraceFormulaReport,
    discretize,
    operator_spectrum,
    trace_formula_check,
)
from .quadrature import MIDPOINT, TRAPEZOID, Grid, inner_product, integrate, make_grid
from .sturm import (
    filtered_series,
    residual_check,
    sine_modes,
    solve_direct,
    solve_spectral,
    trig_modes,
)
from .wavetrace import (
    LaplaceSpectrum,
    LengthMatchReport,
    TraceSignal,
    compare_lengths,
    detect_peaks,
    rectangle_spectrum,
    smoothed_wave_trace,
)

__version__ = "0.1.0"

# every public name imported above; the submodules themselves are not exported
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, types.ModuleType)]
