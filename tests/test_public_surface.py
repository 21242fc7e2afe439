import mecouple

# The package's public names. A name added or removed here is a deliberate
# change of the package surface, to be listed in README as well.
PUBLIC = (
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
)


def test_all_is_pinned_and_every_name_resolves():
    assert sorted(mecouple.__all__) == sorted(PUBLIC)
    assert len(mecouple.__all__) == len(set(mecouple.__all__)) == 33
    for name in mecouple.__all__:
        assert getattr(mecouple, name, None) is not None, name
