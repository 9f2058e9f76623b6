"""Quantum process tomography of dispersive birefringent waveplates.

Forward models polarization transformations of quartz retarders as
chi-matrices / Choi states, synthesizes Poisson tomographic count data, and
reconstructs processes and states by purification-based maximum likelihood
with explicit rank control.
"""

__version__ = "0.1.0"

from .quantum_core import (
    fidelity,
    hermitian_eig,
    partial_trace,
    unvectorize,
    vectorize,
    von_neumann_entropy,
)
from .process_algebra import (
    chi_change_basis,
    chi_from_kraus,
    kraus_from_chi,
    parameter_count,
)
from .waveplate import (
    SpectralProfile,
    WaveplateSpec,
    broadband_mixed_state,
    component_sum_state,
    optical_thickness,
    plate_choi_state,
    quartz_indices,
    retarder_unitary,
    sinc2_profile,
)
from .protocols import (
    Measurements,
    auxiliary_rows,
    bn_state_protocol,
    generate_counts,
    generate_counts_batch,
    j4_states,
    process_protocol,
    r4_states,
)
from .ml_engine import (
    ReconstructionConfig,
    ReconstructionResult,
    solve_likelihood,
    solve_likelihood_batch,
)
from .harness import (
    CampaignConfig,
    MixedWorkflowConfig,
    TruthSpec,
    run_mc_campaign,
    run_mixed_state_workflow,
    run_retarder_fit,
    run_scaling_study,
)
