"""Stieltjes integral means, maximization envelopes, and growth-scale duality.

The public names load on first use (PEP 562), so ``import meanmax`` loads no
numpy.  Each lookup reads the submodule's current attribute and stores nothing
here, so a function patched in its submodule, and later restored, is seen
through the package as it is at each lookup.
"""

import importlib

_EXPORTS = {
    name: module
    for module, names in {
        "func1d": "Domain Envelope Function1D GridSpec Tail classify_monotonicity "
                  "envelope_function evaluate left_maximization right_maximization",
        "stieltjes": "MeanValue Measure1D QuadratureConfig identity_measure integral_mean "
                     "log_measure mean_partial_R mean_partial_r stieltjes_integral",
        "transforms": "Q_from_d TransformResult WeightN d_from_Q decreasing_majorant_mean "
                      "weighted_double_envelope",
        "verify": "DecaySchedule VerifyReport check_corollary_bounds check_majorant_inequality "
                  "check_mean_monotonicity check_pointwise_mean_bound check_sup_identity "
                  "estimate_decay finite_difference_check",
    }.items()
    for name in names.split()
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
