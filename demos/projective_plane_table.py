# Walk through the complete invariant computation for the projective
# plane: expected dimensions, chamber positions, and the full table
# assembled independently from curvature facts and from complex geometry.
#
# Run as: python demos/projective_plane_table.py

from fractions import Fraction

from swcalc import (
    ExtForm,
    KahlerFacts,
    ManifoldTopology,
    PeriodRay,
    characteristic_range,
    classify_chamber_oriented,
    expected_dim_abelian,
    sw_table,
    validate_topology,
    wall_crossing_delta,
)

# The plane has one positive generator h with h.h = 1; every odd
# multiple of h is characteristic.
plane = ManifoldTopology(
    name="P2",
    b1=0,
    bplus=1,
    bminus=0,
    euler=3,
    signature=1,
    intersection_form=((1,),),
    w2=(1,),
)
print("invariant check:", validate_topology(plane) or "all clean")

# Expected dimensions grow quadratically: (c^2 - 9)/4 on this lattice.
for k in (1, 3, 5, 7):
    print(f"w(c = {k}h) = {expected_dim_abelian(plane, (k,))}")

# The round metric has positive scalar curvature and period point h.
# Against that ray, a class with c.h > 0 puts the untwisted pair into
# the minus chamber, so the minus invariant is computed by an empty
# moduli space there.
fubini_study = PeriodRay((Fraction(1),))
chamber = classify_chamber_oriented(plane, (5,), fubini_study, (0,))
print("chamber of (h, 0) for c = 5h:", chamber.value)

# The jump across the wall is +1 whenever the dimension is nonnegative.
for k in (1, 3, 9):
    jump = wall_crossing_delta(plane, (k,), ExtForm.scalar(0, 1))
    print(f"jump across the wall of {k}h: {jump}")

# Pipeline one: curvature vanishing plus the jump.
table_psc = sw_table(plane, characteristic_range(plane, -9, 9), psc_ray=fubini_study)

# Pipeline two: the p_g = 0 rule, deciding rows by whether a degree-m
# curve exists. The effective classes on the plane are the nonnegative
# multiples of h.
facts = KahlerFacts(
    canonical_class=(-3,),
    ns_basis=((1,),),
    effective_cone=((Fraction(1),),),
    pg_zero=True,
    kahler_ray=fubini_study,
)
table_kahler = sw_table(plane, characteristic_range(plane, -9, 9), kahler_facts=facts)

print("pipelines agree:", table_psc == table_kahler)
print("c\tSW+\tSW-")
for row in table_psc:
    print(f"{row.c[0]}\t{row.sw_plus}\t{row.sw_minus}")
