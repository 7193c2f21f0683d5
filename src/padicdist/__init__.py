"""Exact arithmetic in distribution algebras of uniform pro-p groups.

The names below are imported from their modules on first access, so
``import padicdist.cli`` does not load ``suites`` or ``graded``.
"""

from importlib import import_module

_EXPORTS = {
    "padic": ("NormValue", "PadicError", "PadicScalar", "PrecisionExhausted"),
    "groupmodel": ("GroupElement", "GroupModel", "ModelError"),
    "distalg": ("DistError", "Distribution", "Enclosure", "NormInterval", "RadiusParam",
                "lie_generator", "q_norm", "semidirect_mul", "structure_constants"),
    "graded": ("GradedAmbient", "GradedError", "GradedIdeal", "GradedPoly",
               "grade_cyclic", "krull_dim", "saturate"),
    "mahler": ("FunctionSpec", "GroupAlgebraElement", "MahlerError", "MahlerTable",
               "amice_report", "finite_level_project", "mahler_coeffs", "pair",
               "pair_with_indicator_crosscheck"),
    "serialize": ("ParseError", "parse_distribution", "parse_mahler",
                  "serialize_distribution", "serialize_mahler"),
    "suites": ("SUITES", "SuiteParams", "SuiteReport", "run_suite"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF) + ["__version__"]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
