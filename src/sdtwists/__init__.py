"""Exact-arithmetic engine for symmetric-group twists of elliptic curves:
polynomial families whose specializations hand the curve a new point over a
degree-d field, with Galois certification, field counting by discriminant
square classes, and root-number sign control."""

from .polyarith import (
    BivarPoly,
    Poly,
    descartes_sign_changes,
    discriminant,
    discriminant_in_t,
    reduce_mod,
    resultant,
    squarefree_decompose,
    sturm_real_roots,
)
from .padic import (
    CycleType,
    NewtonPolygon,
    cycle_certificate,
    frobenius_cycle_type,
    newton_polygon,
    valuation,
)
from .galois import (
    GaloisEvidence,
    SdCertificate,
    certify_sd,
    collect_evidence,
    transposition_witness,
)
from .family import (
    DiscriminantForm,
    TwistFamily,
    WeierstrassModel,
    build_family,
    build_model,
    disc_form,
    specialize,
    twist_polynomial,
    verify_model,
    verify_new_point,
)
from .counting import (
    AlphaBound,
    CountReport,
    EVInstance,
    EvConfig,
    FieldCandidate,
    SweepBudgets,
    build_count_report,
    c_exponent,
    dedup_classes,
    ev_exponent,
    ev_generate,
    greaves_density,
    schmidt_ev_alpha,
    squarefree_kernel,
    sweep,
)
from .rootnum import (
    CurveArithData,
    RootReport,
    SignPair,
    cubic_twist_residues,
    kronecker,
    relative_root_number,
    sign_pairing,
)

__version__ = "0.1.0"
