"""Simulator and analysis toolkit for two-mode SU(1,1) nonlinear
interferometers with asymmetric internal loss, coherent seeding and
unbalanced parametric gains."""

from .config import InterferometerConfig
from .errors import (
    DomainError,
    StationaryPointError,
    Su11Error,
    TruncationError,
    UndefinedVisibilityError,
)
from .gaussian import (
    IDLER,
    SIGNAL,
    GaussianTwoModeState,
    PhotonStats,
    run_interferometer,
)
from .metrics import SensitivityReport, ShotNoiseConvention

__version__ = "0.1.0"

__all__ = [
    "InterferometerConfig",
    "GaussianTwoModeState",
    "PhotonStats",
    "SensitivityReport",
    "ShotNoiseConvention",
    "SIGNAL",
    "IDLER",
    "run_interferometer",
    "Su11Error",
    "DomainError",
    "UndefinedVisibilityError",
    "StationaryPointError",
    "TruncationError",
    "__version__",
]
