"""Online completion against the staged oracle.

``reference_complete_rank2`` is the staged completion the library used
before completion went online: at every degree k it re-crosses the whole fan
at series order k + 1, reads the lowest slice of the loop's log, adds one wall
per defect term, and ends with one more full loop as a check.  The online
``complete_rank2`` must return the same diagram, byte for byte, and raise the
same errors.
"""

from dataclasses import replace

import pytest

from clusterscatter.cluster_core import FixedData, InvariantViolation, pattern_walk
from clusterscatter.monoid_ring import LaurentSeries, _OnlineFan, _unit, series_mul
from clusterscatter.scattering import (
    PositivityError,
    ScatteringDiagram,
    Wall,
    _cross,
    _cross_fan,
    _crossing_eps,
    _defect_derivation,
    _fan,
    _fresh_walls,
    _old_walls,
    _primitive,
    _sort_walls,
    build_initial,
    complete_rank2,
    diagram_to_json,
    seed_frame,
    tk_invariance_check,
    tk_transform,
)
from test_scattering import A2, B2, KRON, RANK2, group_seed

G2 = FixedData(((0, -3), (1, 0)), (1, 3), (1, 3))
WILD = FixedData(((0, -3), (3, 0)), (1, 1), (3, 3))


def reference_complete_rank2(D: ScatteringDiagram, order: int | None = None) -> ScatteringDiagram:
    """The staged completion: a full loop at order k + 1 for every degree k."""
    ord_ = order if order is not None else D.order
    frame = seed_frame(D.seed)
    lat = D.seed.coeff_lattice
    walls = _fresh_walls(D.walls, frame)
    memo: dict = {}
    outgoing: dict = {}
    for w in walls:
        if not w.incoming:
            if w.ray in outgoing:
                raise ValueError("diagram has two outgoing walls on one ray; merge them first")
            outgoing[w.ray] = w
    for degree in range(2, ord_ + 1):
        first, terms = _defect_derivation(walls, frame, lat.d, degree + 1, memo)
        if first is None:
            continue
        if first < degree:
            raise InvariantViolation(
                f"completion left a defect at degree {first} below the current stage {degree}"
            )
        for c_tilde, e, acting, n0 in terms:
            ray = _primitive(tuple(-x for x in e.m))
            eps = _crossing_eps(ray, acting, True)
            c = -eps * c_tilde
            if c.denominator != 1 or c <= 0:
                raise PositivityError(
                    f"completion needs (1 + t^{e.t} z^{e.m})^{c}; exponent is not a positive integer"
                )
            atom = (e.t, e.m, int(c))
            old = outgoing.get(ray)
            if old is None:
                new = Wall((ray,), n0, acting, (atom,), incoming=False)
            else:
                if _cross(old.acting, acting) != 0:
                    raise InvariantViolation("existing wall on the ray has a different normal direction")
                new = Wall(old.support, old.normal, old.acting, old.factors + (atom,), old.incoming)
                walls.remove(old)
            outgoing[ray] = new
            walls.append(new)
    first, _ = _defect_derivation(walls, frame, lat.d, ord_ + 1, memo)
    if first is not None:
        raise InvariantViolation(f"completion finished but the loop still fails at degree {first}")
    return ScatteringDiagram(_sort_walls(_old_walls(walls, frame)), ord_, D.seed)


def outcome(complete, D, order=None):
    """The JSON of the completion, or the type and message of its error."""
    try:
        return diagram_to_json(complete(D, order))
    except (ValueError, InvariantViolation) as exc:
        return type(exc).__name__, str(exc)


def assert_same(D, order=None):
    got = outcome(complete_rank2, D, order)
    assert got == outcome(reference_complete_rank2, D, order)
    return got


def tame(data) -> bool:
    return data.B[0][1] * data.B[1][0] >= -3


# -- the property: online equals staged ---------------------------------------


def test_box_of_valid_data():
    """All 37 valid rank-2 data of the box: order 8 where b12 b21 <= 3, 6 for
    wild data whose r product is at most 2, and 5 above."""
    assert len(RANK2) == 37
    for data in RANK2:
        order = 8 if tame(data) else 6 if data.r[0] * data.r[1] <= 2 else 5
        out = assert_same(build_initial(group_seed(data), order))
        assert isinstance(out, dict), (data, out)


@pytest.mark.parametrize("data", [A2, B2, KRON, G2, WILD], ids=["a2", "b2", "kron", "g2", "wild"])
@pytest.mark.parametrize("word", [(1,), (2,), (1, 2), (2, 1, 2)], ids=lambda w: "w" + "".join(map(str, w)))
def test_mutated_prefix_seeds(data, word):
    """Seeds with a non-identity frame: degrees are read in the mutated seed's
    own coefficient basis."""
    s = pattern_walk(group_seed(data), word)
    assert not seed_frame(s).is_identity
    out = assert_same(build_initial(s, 4 if data is not WILD else 3))
    assert isinstance(out, dict)


@pytest.mark.parametrize("data, order", [(B2, 6), (KRON, 5), (G2, 5), (WILD, 3)], ids=["b2", "kron", "g2", "wild"])
@pytest.mark.parametrize("k", [1, 2])
def test_recompleting_a_transformed_diagram(data, order, k):
    """A transformed completion sits over a mutated seed and carries outgoing
    walls of many degrees.  Completed at the same order it can miss walls that
    come from above the order, so the two routes need only agree; completed
    deep enough first (``tk_invariance_check``), it is consistent, and
    completing it again changes nothing."""
    s = group_seed(data)
    assert_same(tk_transform(complete_rank2(build_initial(s, order)), k))
    lhs, _, ok = tk_invariance_check(s, k, order)
    assert ok
    assert assert_same(lhs) == diagram_to_json(lhs)


def test_consistent_input_is_returned_unchanged():
    C = complete_rank2(build_initial(group_seed(KRON), 7))
    assert complete_rank2(C).walls == C.walls
    assert assert_same(C, 5) == diagram_to_json(complete_rank2(C, 5))


# -- error paths, each pinned on both routes ----------------------------------


def without_one_incoming_ray(data, order):
    D = build_initial(group_seed(data), order)
    return replace(D, walls=D.walls[1:])


def test_two_outgoing_walls_on_one_ray():
    C = complete_rank2(build_initial(group_seed(B2), 4))
    w = next(w for w in C.walls if not w.incoming)
    D = replace(C, walls=C.walls + (w,))
    assert assert_same(D) == ("ValueError", "diagram has two outgoing walls on one ray; merge them first")


def test_exponent_that_is_not_positive():
    """An outgoing factor with twice its exponent leaves a defect that only a
    negative exponent would cancel."""
    C = complete_rank2(build_initial(group_seed(B2), 4))
    w = next(w for w in C.walls if not w.incoming and len(w.factors) == 1)
    (t, m, c), = w.factors
    D = replace(C, walls=tuple(x for x in C.walls if x is not w) + (replace(w, factors=((t, m, 2 * c),)),))
    kind, message = assert_same(D)
    assert kind == "PositivityError"
    assert message.endswith("^-1; exponent is not a positive integer")


@pytest.mark.parametrize("data", [B2, KRON], ids=["b2", "kron"])
def test_defect_below_the_first_stage(data):
    """A missing half of an incoming hyperplane leaves a defect at degree 1,
    below the first stage; at order 1 it is only seen by the closing loop."""
    msg = "completion left a defect at degree 1 below the current stage 2"
    assert assert_same(without_one_incoming_ray(data, 4)) == ("InvariantViolation", msg)
    msg = "completion finished but the loop still fails at degree 1"
    assert assert_same(without_one_incoming_ray(data, 1)) == ("InvariantViolation", msg)


def test_stage_that_does_not_cancel_its_defect(monkeypatch):
    """The invariant after every stage: once its factors are in, the degree-k
    slices of the loop vanish.  Doubling every factor a stage adds breaks it."""
    multiply = _OnlineFan.multiply

    def doubled(fan, j, phi):
        multiply(fan, j, series_mul(phi, phi) if fan.k >= 2 else phi)

    monkeypatch.setattr(_OnlineFan, "multiply", doubled)
    with pytest.raises(InvariantViolation, match="completion stage 2 left degree-2 terms in the loop"):
        complete_rank2(build_initial(group_seed(B2), 4))


# -- the online fan against the one-shot crossing -----------------------------


@pytest.mark.parametrize("data, order", [(B2, 6), (KRON, 6), (G2, 5), (WILD, 4)], ids=["b2", "kron", "g2", "wild"])
@pytest.mark.parametrize("completed", [False, True], ids=["initial", "completed"])
def test_online_fan_matches_one_shot_crossing(data, order, completed):
    """Slice by slice, the online images equal the one-shot loop's, on a
    consistent and on an inconsistent diagram."""
    D = build_initial(group_seed(data), order)
    if completed:
        D = complete_rank2(D)
    so = order + 1
    walls = _fresh_walls(D.walls, seed_frame(D.seed))
    d = D.seed.coeff_lattice.d
    fan = _fan(walls, so, {})
    online = _OnlineFan(2, d, so)
    for j, (ray, acting, f) in enumerate(fan):
        online.insert(j, acting, _crossing_eps(ray, acting, True))
        online.multiply(j, f)
    images = _cross_fan(fan, True, d, so)
    for k in range(1, so):
        online.step()
        for a, sl in enumerate(online.defect()):
            shift = LaurentSeries.monomial(tuple(-x for x in _unit(2, a)), (0,) * d, 1, so)
            assert sl.terms == series_mul(images[a], shift).degree_slice(k).terms, (k, a)
