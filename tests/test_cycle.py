from fractions import Fraction as F

import pytest

from vcdcycle import cycle as cy
from vcdcycle import polytope as pt
from vcdcycle.exactq import int_det
from vcdcycle.sharbly import canonicalize


def test_build_z2_closed_form():
    z = cy.build_zG(2)
    sign, b = canonicalize([(1, 0), (0, 1), (1, -1)])
    ((cls, coeff),) = tuple(z.coin.items())
    assert cls.rep == b and coeff == F(sign, 6)
    assert z.stabilizer_orders == {"A2": 6}


def test_build_z3_closed_form():
    z = cy.build_zG(3)
    sign, b = canonicalize(
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0), (1, 0, -1), (0, 1, -1)]
    )
    ((cls, coeff),) = tuple(z.coin.items())
    assert cls.rep == b and coeff == F(sign, 24)
    assert z.stabilizer_orders == {"A3": 24}


def test_build_z4_places_the_d4_tile_once(monkeypatch):
    calls = []
    placing = pt.placing_triangulation

    def counting(config, *args, **kwargs):
        calls.append(len(config))
        return placing(config, *args, **kwargs)

    monkeypatch.setattr(cy, "placing_triangulation", counting)
    cy.default_triangulation.cache_clear()
    first, second = cy.build_zG(4), cy.build_zG(4)
    assert calls == [12]
    assert first.raw == second.raw and first.coin == second.coin


def test_build_unsupported_rank():
    with pytest.raises(ValueError):
        cy.build_zG(5)


def test_boundary_certificates_small():
    for n in (2, 3):
        z = cy.build_zG(n)
        cert = cy.verify_boundary_zero(z)
        assert cert.valid and not cert.residual
        for account in cert.accounts:
            assert account.kind == "self-negating"
            for tid, contrib, g, sign, w in account.members:
                assert int_det(g) == 1 and int_det(w) == 1


def test_an_remark_contrast():
    assert cy.verify_an_remark(2)["is_boundary_zero"]
    assert cy.verify_an_remark(3)["is_boundary_zero"]

