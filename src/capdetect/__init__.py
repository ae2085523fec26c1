"""capdetect: measurement-based lower bounds to the classical capacity of
quantum channels.

Reconstruct per-basis conditional probabilities of a channel, maximize the
classical mutual information of each (Blahut-Arimoto or closed forms), and
take the best basis as an experimentally accessible capacity lower bound.
"""

__version__ = "0.1.0"

from .qcore import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DegenerateBasisError,
    KrausChannel,
    MeasurementBasis,
    apply_channel,
    choi_matrix,
    computational_basis,
    conditional_probs,
    eigenbasis,
    fourier_basis,
    is_cptp,
    maximally_entangled,
    weyl_operator,
)
from .channels import (
    AffineQubitChannel,
    ChannelSpec,
    affine_to_kraus,
    dephasing_axis_channel,
    extremal_affine,
    gad_affine,
    kraus_to_affine,
    named_affine_params,
    pauli_channel,
    pauli_family_channel,
    rotated_pauli_channel,
    stretched_affine,
    vshape_qutrit_channel,
)
from .infotheory import (
    BAResult,
    binary_capacity,
    binary_entropy,
    blahut_arimoto,
    blahut_arimoto_batch,
    mutual_information,
    shannon_entropy,
    weakly_symmetric_capacity,
)
from .detect import (
    DetectionConfig,
    DetectionResult,
    PseudoclassicalityReport,
    dephasing_detected,
    detect_capacity,
    detect_from_transitions,
    detect_pauli_qubit,
    detect_weyl,
    holevo_gad_p1,
    pauli_axis_capacity,
    pauli_bases,
    pauli_epsilons,
    pseudoclassicality,
    qutrit_vshape_transitions,
    rotated_pauli_detected,
    t_threshold,
    von_mises_expected_capacity,
    weyl_bases,
)
from .protocol_sim import (
    EstimatedDetection,
    ShotRecord,
    detect_from_samples,
    entangled_joint_distribution,
    sample_transition,
    write_shot_records_csv,
)
