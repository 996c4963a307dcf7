"""1D quantum transport of spin-1/2 particles through point interactions.

Library layout:

* :mod:`spinpoint.extensions` -- boundary-condition matrices and current
  conservation checks;
* :mod:`spinpoint.scattering` -- 4-channel scattering matrices at fixed k;
* :mod:`spinpoint.device` -- finite devices and transmission spectra;
* :mod:`spinpoint.bands` -- Bloch band structure of periodic combs;
* :mod:`spinpoint.cli` -- the ``spinpoint`` command-line front end.
"""

from .bands import (
    BandDiagram,
    Branch,
    CurvatureFit,
    PeriodicComb,
    SlopeFit,
    band_edges,
    cell_transfer,
    dispersion,
    effective_mass,
    scalar_cell_transfer,
    scalar_dispersion,
    scalar_kp_relation,
    sound_slope,
    spin_decouple,
)
from .device import (
    Device,
    FreeSegment,
    SpectrumTable,
    SweepSpec,
    preset_filter,
    preset_resonator,
    spectrum,
    total_transfer,
)
from .errors import (
    ConfigError,
    FitWindowError,
    InvalidTransferError,
    ParameterDomainError,
    SpectralSingularityError,
    SpinpointError,
)
from .extensions import (
    CurrentForm,
    CurrentReport,
    DefectKind,
    DefectSpec,
    compose,
    conserves_currents,
    current_forms,
    defect_matrix,
    flux_defect,
    mass_jump_defect,
    mu_from_x2,
    phi_from_x3,
    product_defect,
    r_flip_defect,
    rtilde_flip_defect,
    x1_defect,
    x2_from_mu,
    x3_from_phi,
    x4_defect,
)
from .scattering import (
    CHANNELS,
    CLOSED_FORM_CHANNELS,
    CLOSED_FORM_PERMUTATION,
    ScatteringMatrix,
    channel_index,
    channel_probabilities,
    closed_form_flip_smatrix,
    closed_form_to_grouped,
    momentum_from_energy,
    propagation,
    transfer_to_scattering,
)

__version__ = "0.1.0"
