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
    KrausChannel,
    MeasurementBasis,
    apply_channel,
    choi_matrix,
    computational_basis,
    conditional_probs,
    is_cptp,
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
)
from .detect import (
    DetectionConfig,
    DetectionResult,
    PseudoclassicalityReport,
    dephasing_detected,
    detect_capacity,
    detect_from_transitions,
    detect_pauli_qubit,
    holevo_gad_p1,
    pauli_axis_capacity,
    pauli_bases,
    pseudoclassicality,
    rotated_pauli_detected,
    t_threshold,
    von_mises_expected_capacity,
    vshape_detected,
    weyl_bases,
)
from .protocol_sim import (
    EstimatedDetection,
    detect_from_counts,
    detect_from_samples,
    sample_counts,
    sample_transition,
)
