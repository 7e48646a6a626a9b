"""Periodic-orbit censuses, pressure curves, and multiplier-counting
experiments for hyperbolic rational maps on the complex plane."""

from .errors import (
    CensusError,
    ConfigError,
    MathDomainError,
    OrbitctlError,
)
from .maps import (
    RationalMapSpec,
    hyperbolicity_probe,
    load_map,
)
from .orbits import (
    OrbitDatabase,
    PeriodicOrbit,
    enumerate_primitive,
    load_db,
    save_db,
)
from .thermo import (
    bowen_dimension,
    pressure_curve,
    pressure_estimate,
    thermo_profile,
)
from .transfer import build_mesh, decay_probe, dimension_from_mesh, normalize
from .counting import (
    CountQuery,
    count_orbits,
    li_table,
    logarithmic_integral,
    predicted_count,
    smoothed_count,
    weyl_sums,
)
from .windows import SmoothedWindow, WindowSchedule, make_bump

__version__ = "0.1.0"

__all__ = [
    "RationalMapSpec",
    "load_map",
    "hyperbolicity_probe",
    "OrbitDatabase",
    "PeriodicOrbit",
    "enumerate_primitive",
    "save_db",
    "load_db",
    "pressure_estimate",
    "pressure_curve",
    "thermo_profile",
    "bowen_dimension",
    "build_mesh",
    "normalize",
    "decay_probe",
    "dimension_from_mesh",
    "SmoothedWindow",
    "WindowSchedule",
    "make_bump",
    "CountQuery",
    "count_orbits",
    "predicted_count",
    "smoothed_count",
    "weyl_sums",
    "li_table",
    "logarithmic_integral",
    "OrbitctlError",
    "ConfigError",
    "MathDomainError",
    "CensusError",
    "__version__",
]
