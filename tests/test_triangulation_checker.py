"""The search-free triangulation checker of `certs` against the volume
checker it replaced, kept here as the oracle.

The oracle reads the same heights and lifting inequalities, but where the
checker asks that no point lie strictly across a ridge of just one listed
simplex, it compares the simplex volumes with the hull volume of a placing
triangulation: the search that wrote the certificate, run again.
"""

import copy
import itertools
import json
import random

import pytest

from vcdcycle import certs, cli, data
from vcdcycle import polytope as pt
from vcdcycle import serialize as ser
from vcdcycle.exactq import q_parse

from test_polytope import _random_configs, hull_volume_scaled

D5_FACET = ",".join(map(str, data.D5_FACET_F))


def oracle_check(payload) -> bool:
    """The volume checker: strict lifting inequalities on every listed
    simplex, none degenerate, and volumes summing to the hull volume."""
    config = pt.PointConfiguration.from_points(ser.points_from_json(payload["points"]))
    tri = ser.triangulation_from_json(payload["simplices"])
    if set(payload["heights"]) != {str(i) for i in config.labels}:
        return False
    heights = {int(k): q_parse(v) for k, v in payload["heights"].items()}
    total = 0
    for s in tri:
        d = pt._simplex_det(config, s)
        if d == 0:
            return False
        total += abs(d)
        for w, (det, dep) in pt._simplex_dependences(config, s).items():
            if (det * heights[w] + sum(c * heights[l] for l, c in dep.items())) * det <= 0:
                return False
    return total == hull_volume_scaled(config)


def _placed(config, order):
    tri = pt.placing_triangulation(config, order=order)
    return tri, pt.is_regular(config, tri)


def _mutants(rng, config, tri, heights, foreign):
    """The certificate of (tri, heights), then the same with simplices
    dropped, a simplex added, one height moved, and each foreign witness
    (the heights of another regular triangulation)."""
    def cert(simplices, hs):
        return ser.triangulation_certificate(config, simplices, hs, config.labels)

    yield cert(tri, heights)
    simplices = sorted(tri, key=sorted)
    for k in {1, len(simplices) // 2, len(simplices)} - {0}:
        yield cert(frozenset(rng.sample(simplices, len(simplices) - k)), heights)
    others = [frozenset(c) for c in itertools.combinations(config.labels, config.ambient_dim + 1)]
    extra = [s for s in others if s not in tri]
    if extra:
        yield cert(tri | {rng.choice(extra)}, heights)
    for _ in range(2):
        moved = dict(heights)
        w = rng.choice(list(config.labels))
        moved[w] += rng.choice([-3, -1, 1, 3]) * q_parse(f"1/{rng.randint(1, 4)}")
        yield cert(tri, moved)
    for hs in foreign:
        yield cert(tri, hs)


def _assert_agree(docs) -> dict:
    verdicts = {True: 0, False: 0}
    for doc in docs:
        ok, msg = certs.check_certificate(doc)
        assert ok == oracle_check(doc["payload"]), msg
        assert not msg.startswith("malformed"), msg
        verdicts[ok] += 1
    return verdicts


@pytest.fixture(scope="module")
def named_certs(tmp_path_factory):
    """The A3, D4 and D5 F triangulation certificates, by form."""
    out = {}
    for form, facet in (("A3", ["--facet", "0,1,2,3,4"]), ("D4", []),
                        ("D5", ["--facet", D5_FACET])):
        path = tmp_path_factory.mktemp("tri") / "tc.json"
        assert cli.main(["triangulate", "--form", form, *facet, "--cert", str(path)]) == 0
        out[form] = json.loads(path.read_text())
    return out


@pytest.mark.parametrize("form", ["A3", "D4", "D5"])
def test_agrees_with_the_volume_checker_on_the_named_certificates(named_certs, form):
    payload = named_certs[form]["payload"]
    config = pt.PointConfiguration.from_points(ser.points_from_json(payload["points"]))
    tri = ser.triangulation_from_json(payload["simplices"])
    heights = {int(k): q_parse(v) for k, v in payload["heights"].items()}
    rng = random.Random(form)
    foreign = []
    for _ in range(4):
        order = list(config.labels)
        rng.shuffle(order)
        other, hs = _placed(config, order)
        if other != tri:
            foreign.append(hs)
    if form == "D5":
        assert foreign
    verdicts = _assert_agree(_mutants(rng, config, tri, heights, foreign))
    assert min(verdicts.values()) >= 1, verdicts


@pytest.mark.parametrize("seed", [0, 1])
def test_agrees_with_the_volume_checker_on_random_configurations(seed):
    rng = random.Random(seed)
    verdicts = {True: 0, False: 0}
    for config in _random_configs(100 + seed, 25, dims=(2, 3)):
        placed = []
        for _ in range(3):
            order = list(config.labels)
            rng.shuffle(order)
            placed.append(_placed(config, order))
        for i, (tri, heights) in enumerate(placed):
            foreign = [hs for j, (other, hs) in enumerate(placed) if j != i and other != tri]
            for ok, count in _assert_agree(_mutants(rng, config, tri, heights, foreign)).items():
                verdicts[ok] += count
    assert min(verdicts.values()) >= 50, verdicts


def test_the_checker_runs_no_placing_triangulation(named_certs, monkeypatch):
    doc = copy.deepcopy(named_certs["D5"])

    def refuse(*args, **kwargs):
        raise AssertionError("placing_triangulation called")

    monkeypatch.setattr(pt, "placing_triangulation", refuse)
    assert certs.check_certificate(doc) == (True, "triangulation certificate valid")
    del doc["payload"]["simplices"][0]
    assert certs.check_certificate(doc) == (False, "unshared ridge inside the hull")
