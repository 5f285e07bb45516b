"""Near-field XL-MIMO channel simulator and analysis toolkit."""

from .beamfocus import (
    FocusSetup,
    GainMode,
    array_gain,
    array_gain_closed_form,
    make_focus_setup,
    paraxial_parameter,
    spacing_threshold,
)
from .channel import ChannelMatrix, SystemGeometry, build_channel, greens
from .experiments import (
    SweepRecord,
    SweepSpec,
    SystemParams,
    coaxial_system,
    eigen_profile,
    point_metrics,
    run_sweep,
)
from .geometry import PlanarArray, build_upa
from .spectrum import (
    EdofReport,
    EigenSpectrum,
    capacity,
    count_dof,
    edof_exact,
    edof_fringes,
    edof_report,
    edof_trace,
    eigen_spectrum,
    plane_area,
)

__all__ = [
    "ChannelMatrix",
    "EdofReport",
    "EigenSpectrum",
    "FocusSetup",
    "GainMode",
    "PlanarArray",
    "SweepRecord",
    "SweepSpec",
    "SystemGeometry",
    "SystemParams",
    "array_gain",
    "array_gain_closed_form",
    "build_channel",
    "build_upa",
    "capacity",
    "coaxial_system",
    "count_dof",
    "edof_exact",
    "edof_fringes",
    "edof_report",
    "edof_trace",
    "eigen_profile",
    "eigen_spectrum",
    "greens",
    "make_focus_setup",
    "paraxial_parameter",
    "plane_area",
    "point_metrics",
    "run_sweep",
    "spacing_threshold",
]

__version__ = "0.1.0"
