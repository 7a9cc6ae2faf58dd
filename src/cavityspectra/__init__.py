"""Ground-state electric-field spectra in a plane-mirror cavity and homodyne detection."""

import importlib

from .errors import LightConeProximity, NumericalGuardError
from .units import (
    CavityGeometry,
    FieldPoint,
    FrequencyGrid,
    build_grid,
    from_internal,
    near_discontinuity,
    to_internal,
    validate_point,
)
from .imagesum import (
    GUARD_BAND,
    SpacetimePoint,
    TruncationPolicy,
    image_sum,
    two_point_yy_closed,
    two_point_yy_fd,
    two_point_yy_lattice,
)
from .spectral import (
    SERIES_THRESHOLD,
    SpectralSample,
    laplace_modes_diag,
    q_kernel,
    sigma_modes,
    sigma_modes_diag,
    sigma_vacuum,
    sigma_vacuum_from_kernels,
    sigma_yy,
    sigma_yy_diag,
    smeared_modes_diag,
)

__version__ = "0.1.0"

#: Names of the detector module, which loads on first access: most commands
#: do not run it, and ``import cavityspectra.cli`` pays for every module it
#: loads.
_LAZY = dict.fromkeys(
    ("ClassicalComponent", "DetectorConfig", "LOKernel", "LOMode", "check_balance",
     "mean_current", "mode_field_components", "smeared_density", "variance_current"),
    "bhd",
)


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # looked up on every access, so the name follows its module's attribute
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *_LAZY})

__all__ = [
    "CavityGeometry",
    "ClassicalComponent",
    "DetectorConfig",
    "FieldPoint",
    "FrequencyGrid",
    "GUARD_BAND",
    "LOKernel",
    "LOMode",
    "LightConeProximity",
    "NumericalGuardError",
    "SERIES_THRESHOLD",
    "SpacetimePoint",
    "SpectralSample",
    "TruncationPolicy",
    "build_grid",
    "check_balance",
    "from_internal",
    "image_sum",
    "laplace_modes_diag",
    "mean_current",
    "mode_field_components",
    "near_discontinuity",
    "q_kernel",
    "sigma_modes",
    "sigma_modes_diag",
    "sigma_vacuum",
    "sigma_vacuum_from_kernels",
    "sigma_yy",
    "sigma_yy_diag",
    "smeared_density",
    "smeared_modes_diag",
    "to_internal",
    "two_point_yy_closed",
    "two_point_yy_fd",
    "two_point_yy_lattice",
    "validate_point",
    "variance_current",
]
