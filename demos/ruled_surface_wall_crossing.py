# Wall crossing on the ruled surfaces Sigma_g x S^2 up to b1 = 20: the
# jump is a Pfaffian of the halved cup form, so it has a closed form in
# the standard symplectic basis of H^1.
#
# Run as: python demos/ruled_surface_wall_crossing.py

from swcalc import (
    ExtForm,
    ManifoldTopology,
    cup_form,
    expected_dim_abelian,
    triple_cup_from_entries,
    wall_crossing_delta,
)


def ruled_surface(g: int) -> ManifoldTopology:
    # H^2 = (u, v) with u.v = 1; H^1 has the symplectic basis a_1..a_2g
    # with <a_(2i-1) u a_(2i) u v, [X]> = 1 and every other cup number 0.
    return ManifoldTopology(
        name=f"Sigma{g}xS2",
        b1=2 * g,
        bplus=1,
        bminus=1,
        euler=4 - 4 * g,
        signature=0,
        intersection_form=((0, 1), (1, 0)),
        w2=(0, 0),
        triple_cup=triple_cup_from_entries(
            2 * g, 2, [(2 * i - 1, 2 * i, 2, 1) for i in range(1, g + 1)]
        ),
    )


# For c = (c_1, c_2) the cup form is (c_2/2) * sum_i a_(2i-1) ^ a_(2i),
# whose Pfaffian is (c_2/2)^g; with the divided-power sign the scalar
# jump is (-1)^g (c_2/2)^g.
c = (2, 4)
print("g  b1  w   scalar jump  (-1)^g (c_2/2)^g")
for g in range(1, 11):
    m = ruled_surface(g)
    jump = wall_crossing_delta(m, c, ExtForm.scalar(2 * g, 1))
    closed = (-1) ** g * (c[1] // 2) ** g
    print(f"{g:<2} {2 * g:<3} {expected_dim_abelian(m, c):<3} {jump:<12} {closed}")
    assert jump == closed

# A degree-2 test form pairs each term with the Pfaffian of the cup form
# on the complementary generators. On g = 3 the term a1 ^ a2 leaves the
# pairs (a3, a4) and (a5, a6), a Pfaffian of (c_2/2)^2 = 4 with sign
# (-1)^2; the term a3 ^ a5 leaves a4 and a6 unpaired and contributes 0.
m = ruled_surface(3)
theta = ExtForm(6, {(1, 2): 1, (3, 5): 5})
print("cup form on Sigma3xS2:", cup_form(m, c))
print("test form:", theta)
print("jump on the test form:", wall_crossing_delta(m, c, theta))
