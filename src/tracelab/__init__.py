"""tracelab: a numerical laboratory for trace identities.

Discretize symmetric integral kernels on [0,1], compute their spectra,
and verify at desk scale that the sum of eigenvalues equals the integral
of the kernel diagonal — then push the same idea through the Basel sum,
uniform kernel reconstruction, the heat-trace/theta identity, and the
wave-trace/billiard-length correspondence on rectangles.

Importing the package loads no submodule, and so not numpy: each public
name below is looked up in its submodule when it is first read (PEP 562).
The CLI relies on this to set up numpy's environment before numpy loads.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "billiard": ("ClosedOrbit", "LengthSpectrum", "Table", "Trajectory", "disc",
                 "is_closed", "length_spectrum", "rectangle", "simulate"),
    "heat": ("HeatTraceReport", "ThetaEvaluation", "heat_evolve", "heat_trace_check",
             "theta", "theta_transform_residual"),
    "kernels": ("KernelSpec", "diagonal_trace", "eval_green", "eval_heat_periodic",
                "green_dirichlet", "heat_circle", "tabulated"),
    "linalg": ("EigenDecomposition", "NumericalError", "SymMatrix", "eigh_eigen",
               "jacobi_eigen", "matrix_trace_identity"),
    "mercer": ("BaselReport", "MercerReport", "basel_via_trace", "mercer_reconstruct"),
    "nystrom": ("OperatorSpectrum", "TraceFormulaReport", "discretize",
                "operator_spectrum", "trace_formula_check"),
    "quadrature": ("MIDPOINT", "TRAPEZOID", "Grid", "inner_product", "integrate",
                   "make_grid"),
    "sturm": ("filtered_series", "residual_check", "sine_modes", "solve_direct",
              "solve_spectral", "trig_modes"),
    "wavetrace": ("LaplaceSpectrum", "LengthMatchReport", "TraceSignal", "compare_lengths",
                  "detect_peaks", "rectangle_spectrum", "smoothed_wave_trace"),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SUBMODULE)


def __getattr__(name):
    # not cached in the package namespace: a name rebound in its submodule
    # (as the benchmark's tracing does) is what the package returns
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_SUBMODULE[name]}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
