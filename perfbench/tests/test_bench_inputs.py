"""The seeded input generators: SL_n(Z) elements and moved cycles."""

from fractions import Fraction

import inputs
from vcdcycle import cycle as cy, serialize as ser
from vcdcycle.exactq import int_det


def test_sl_elements_are_integral_det_one_and_deterministic():
    for seed in range(20):
        for n in (2, 3, 4):
            g = inputs.sl_element(inputs.rng_for("test", seed), n)
            assert all(isinstance(x, int) for row in g for x in row)
            assert int_det(g) == 1
            assert g == inputs.sl_element(inputs.rng_for("test", seed), n)
    assert inputs.cycles_inputs(3) == inputs.cycles_inputs(3)
    assert inputs.cycles_inputs(3)["moves"] != inputs.cycles_inputs(4)["moves"]


def _abs_coefficients(z) -> list[Fraction]:
    return sorted(abs(c) for c in z.coin.values())


def test_moved_cycles_keep_coinvariant_coefficients_up_to_sign():
    for n in (2, 3, 4):
        doc = ser.cycle_to_json(cy.build_zG(n))
        unmoved = _abs_coefficients(ser.cycle_from_json(doc))
        for seed in range(2):
            g = inputs.sl_element(inputs.rng_for("test", seed), n)
            moved = ser.cycle_from_json(inputs.move_cycle(doc, g))
            assert _abs_coefficients(moved) == unmoved
            assert cy.verify_boundary_zero(moved).valid


def test_move_by_identity_keeps_the_cycle():
    doc = ser.cycle_to_json(cy.build_zG(3))
    ident = tuple(tuple(int(i == j) for j in range(3)) for i in range(3))
    moved = inputs.move_cycle(doc, ident)
    assert moved["provenance"] == doc["provenance"]
    assert ser.cycle_from_json(moved).raw == ser.cycle_from_json(doc).raw
