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
import math
import operator
import sys

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


def _shown(number) -> str:
    """`number` in at most 24 characters, an integer of more to 4 digits; never raises."""
    if not isinstance(number, int) or -10**23 < number < 10**23:
        return str(number)
    # scaled to about 1e300, which a float holds, also where floor(log10) is off by one
    shift = max(math.floor(math.log10(abs(number))) - 300, 0)
    mantissa, exponent = f"{number / 10**shift:.3e}".split("e")
    return f"{mantissa}e+{int(exponent) + shift}"


def _count(name: str, value, low: int, cap: int | None = None) -> int:
    """The integer `value` in [low, cap], refused by `name` when it is not one."""
    try:
        count = operator.index(value)  # numpy integers too; not floats, NaN or strings
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if count < low:
        raise ValueError(f"{name} must be >= {low}, got {_shown(count)}")
    if cap is not None and count > cap:
        raise ValueError(f"{name}={_shown(count)} is above the cap of {_shown(cap)}")
    return count


def _positive(name: str, value, cap: float = math.inf):
    """The real `value` in (0, cap], unchanged, refused by `name` when it is not one."""
    try:
        positive = 0.0 < value <= sys.float_info.max  # False for NaN, and an int past the floats
    except TypeError:
        raise TypeError(f"{name} must be a real number, got {value!r}") from None
    if not positive:
        raise ValueError(f"{name} must be positive and finite, got {_shown(value)}")
    if value > cap:
        raise ValueError(f"{name}={_shown(value)} is above the cap of {_shown(cap)}")
    return value


def _within(cause: dict, amount, unit: str, cap) -> None:
    """Refuse `amount` of work in `unit` past `cap`, or NaN, naming the inputs in `cause`."""
    if not amount <= cap:
        if isinstance(amount, float) and math.isfinite(amount):
            amount = math.ceil(amount)  # an estimate, shown in the whole units it takes
        first, *more = (f"{name}={_shown(value)}" for name, value in cause.items())
        inputs = f"{first} with {' and '.join(more)}" if more else first
        raise ValueError(f"{inputs} needs {_shown(amount)} {unit}; the cap is {_shown(cap)}")
