"""Minimum-entropy couplings of discrete distributions.

Given marginals p and q, `min_entropy_coupling` builds a joint distribution
whose entropy exceeds the (NP-hard) minimum by at most one bit;
`k_min_entropy_coupling` extends this to k marginals within ceil(log2 k)
bits. Both certify their guarantees against the greatest lower bound of the
marginals in the majorization lattice (`glb`), and `exact_min_entropy`
provides a brute-force ground truth for desk-size instances.
"""

from .errors import (
    AxisOutOfRange,
    BadTotal,
    Empty,
    InstanceTooLarge,
    InternalInvariant,
    LengthMismatch,
    MecoupleError,
    NegativeMass,
    ShrinkRequested,
    TooFewMarginals,
    ValidationError,
)
from .lattice import GlbResult, glb
from .multiway import SparseJoint, k_min_entropy_coupling, marginalize
from .oracle import VertexCoupling, exact_min_entropy
from .pairwise import (
    BoundsReport,
    CouplingMatrix,
    DistanceInterval,
    InversionPoints,
    bounds,
    distance_interval,
    inversion_points,
    min_entropy_coupling,
)
from .probvec import (
    DEFAULT_TOL,
    ProbVec,
    Tolerances,
    entropy,
    entropy_bits,
    make_probvec,
    pad_to,
)

__version__ = "0.1.0"

__all__ = [
    "AxisOutOfRange",
    "BadTotal",
    "BoundsReport",
    "CouplingMatrix",
    "DEFAULT_TOL",
    "DistanceInterval",
    "Empty",
    "GlbResult",
    "InstanceTooLarge",
    "InternalInvariant",
    "InversionPoints",
    "LengthMismatch",
    "MecoupleError",
    "NegativeMass",
    "ProbVec",
    "ShrinkRequested",
    "SparseJoint",
    "Tolerances",
    "TooFewMarginals",
    "ValidationError",
    "VertexCoupling",
    "bounds",
    "distance_interval",
    "entropy",
    "entropy_bits",
    "exact_min_entropy",
    "glb",
    "inversion_points",
    "k_min_entropy_coupling",
    "make_probvec",
    "marginalize",
    "min_entropy_coupling",
    "pad_to",
]
