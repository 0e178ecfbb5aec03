"""boxcert: exact-arithmetic certification toolkit for non-signalling boxes.

Boxes with exact rational probability tables, CHSH functionals,
twirling channels, locality membership and anti-robustness by exact
rational LP, and machine-checkable no-broadcasting certificates.
"""

from .box import (
    Box,
    BoxError,
    Cut,
    MarginalIllDefined,
    NegativeEntry,
    NotNormalized,
    NSReport,
    NSViolation,
    ShapeMismatch,
    WeightOutOfRange,
    WrongShape,
    b_alpha,
    convex_combination,
    deterministic_vertices,
    is_fully_ns,
    is_ns_in_cut,
    make_box,
    marginal,
    mix,
    permute_parties,
    pr_box,
    tensor,
    uniform_box,
)
from .boxio import BoxFormatError, box_from_dict, box_to_dict, load_box, save_box
from .broadcast import (
    BroadcastInstance,
    FeasibilityVerdict,
    JointDist,
    ScanReport,
    broadcast_scan,
    c1c2_projection,
    full_broadcast_feasibility,
    projection_feasibility,
    s1_check,
    s2_point,
)
from .certificates import (
    antirobustness_certificate,
    halfspace_certificate,
    hyperplane_certificate,
    membership_certificate,
    scan_certificate,
    verify_certificate,
)
from .chsh import CHSHValue, beta, beta_table, correlator, max_beta
from .polytope import (
    AntiRobustnessResult,
    DegenerateRay,
    HalfspaceReport,
    HyperplaneReport,
    MembershipCertificate,
    PreconditionNotMet,
    RayPoint,
    anti_robustness,
    anti_robustness_closed_form,
    halfspace_body_equality_check,
    hyperplane_locality_check,
    lr_membership,
    ray_intersection,
)
from .ratlp import (
    Constraint,
    LinearProgram,
    LPOutcome,
    MalformedLP,
    check_witness,
    dump_lp,
    solve,
)
from .twirl import (
    RelabelingMixture,
    RelabelingOp,
    TwirlChannel,
    apply_relabeling,
    line_decomposition,
    line_transport,
    twirl,
)

__version__ = "0.1.0"
