"""Online completion against the staged oracle, and the one crossing
kernel, ``_Factor``, against the expanded crossing.

``reference_complete_rank2`` is the staged completion the library used
before completion went online: at every degree k it re-crosses the whole fan
at series order k + 1, reads the lowest slice of the loop's log with
``series_log`` (``log_defect_derivation``), adds one wall per defect term, and
ends with one more full loop as a check.  The online ``complete_rank2`` must
return the same diagram, byte for byte, and raise the same errors; the
library's ``_defect_derivation`` reads the same slice off the crossed images
without a log, and must agree with the log reading.

``reference_cross_fan`` expands each ray's function and crosses it with
``wall_cross`` once per generator.  Both loops over the kernel must give its
images: the one-shot loop ``_cross_fan`` and, slice by slice, the online fan
``_OnlineFan``.
"""

from bisect import bisect_left
from dataclasses import replace
from itertools import product

import pytest

from clusterscatter import scattering
from clusterscatter.cluster_core import FixedData, InvariantViolation, pattern_walk
from clusterscatter.monoid_ring import (
    LaurentSeries,
    _cross_in_place,
    _Factor,
    _generator_slices,
    _OnlineFan,
    _unit,
    series_log,
    series_mul,
    wall_cross,
)
from clusterscatter.scattering import (
    PathSpec,
    PositivityError,
    ScatteringDiagram,
    Wall,
    _cross,
    _cross_fan,
    _defect_derivation,
    _defect_terms,
    _function,
    _primitive,
    _turn,
    build_initial,
    check_consistency,
    complete_rank2,
    diagram_to_json,
    diagram_truncate,
    seed_frame,
    tk_invariance_check,
    tk_transform,
)
from oracles import min_degree, path_ordered_product
from test_scattering import A2, B2, KRON, RANK2, group_seed

G2 = FixedData(((0, -3), (1, 0)), (1, 3), (1, 3))
WILD = FixedData(((0, -3), (3, 0)), (1, 1), (3, 3))


def one_shot_images(fan, ccw, d, series_order):
    """`_cross_fan`'s images of the generators as series."""
    images, bound = _cross_fan(fan, ccw, d, series_order)
    return [
        LaurentSeries._make({k: c for sl in slices for k, c in sl.items()}, series_order, (2, d), bound)
        for slices in images
    ]


def expanded(fan, series_order):
    """A diagram's fan with each ray's factors expanded into its function."""
    return [(ray, _function(atoms, series_order)) for ray, atoms in fan]


def log_defect_derivation(fan, frame, d, series_order):
    """The loop's defect read off its log: z^{-e_a} times each image, then
    ``series_log``, then the lowest nonzero slice of the two logs."""
    images = one_shot_images(fan, True, d, series_order)
    logs = []
    for a in range(2):
        shift = LaurentSeries.monomial(tuple(-x for x in _unit(2, a)), (0,) * d, 1, series_order)
        logs.append(series_log(series_mul(images[a], shift)))
    degrees = [min_degree(lg) for lg in logs if lg]
    if not degrees:
        return None, None
    first = min(degrees)
    return first, _defect_terms(frame, [lg.degree_slice(first) for lg in logs])


def reference_complete_rank2(D: ScatteringDiagram) -> ScatteringDiagram:
    """The staged completion: a full loop at order k + 1 for every degree k."""
    ord_, frame, d = D.order, D.frame, sum(D.seed.coeff_orders)
    walls = list(D.walls)
    outgoing: dict = {}
    for w in walls:
        if not w.incoming:
            if w.ray in outgoing:
                raise ValueError("diagram has two outgoing walls on one ray; merge them first")
            outgoing[w.ray] = w
    for degree in range(2, ord_ + 1):
        first, terms = log_defect_derivation(ScatteringDiagram(walls, ord_, D.seed).fan, frame, d, degree + 1)
        if first is None:
            continue
        if first < degree:
            raise InvariantViolation(
                f"completion left a defect at degree {first} below the current stage {degree}"
            )
        for c_tilde, e, acting in terms:
            ray = _primitive(tuple(-x for x in e.m))
            # the loop crosses the ray by (r1, -r0): c = -c_tilde when that is acting itself
            c = c_tilde if _cross(ray, acting) > 0 else -c_tilde
            if c.denominator != 1 or c <= 0:
                raise PositivityError(
                    f"completion needs (1 + t^{e.t} z^{e.m})^{c}; exponent is not a positive integer"
                )
            atom = (frame.to_old(e.t), e.m, int(c))
            old = outgoing.get(ray)
            if old is None:
                new = Wall(ray, (atom,), incoming=False)
            else:
                new = Wall(old.ray, old.factors + (atom,), old.incoming)
                walls.remove(old)
            outgoing[ray] = new
            walls.append(new)
    out = ScatteringDiagram(walls, ord_, D.seed)
    first, _ = log_defect_derivation(out.fan, frame, d, ord_ + 1)
    if first is not None:
        raise InvariantViolation(f"completion finished but the loop still fails at degree {first}")
    return out


def outcome(fn, *args):
    """What the call returns (a diagram as its JSON), or the type and message
    of its error."""
    try:
        out = fn(*args)
    except (ValueError, InvariantViolation) as exc:
        return type(exc).__name__, str(exc)
    return diagram_to_json(out) if isinstance(out, ScatteringDiagram) else out


def assert_same(D):
    got = outcome(complete_rank2, D)
    assert got == outcome(reference_complete_rank2, D)
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
    C5 = diagram_truncate(C, 5)
    assert assert_same(C5) == diagram_to_json(complete_rank2(C5)) == diagram_to_json(C5)


def truncations_are_completions(s, top) -> int:
    """Below ``top``, the truncated deep completion of ``s`` against the
    completion at each lower order, as JSON; returns the orders checked."""
    deep = complete_rank2(build_initial(s, top))
    for o in range(1, top):
        shallow = complete_rank2(build_initial(s, o))
        assert diagram_to_json(diagram_truncate(deep, o)) == diagram_to_json(shallow), (s.data, s.word, o)
    return top - 1


@pytest.mark.parametrize("data, top", [(B2, 8), (KRON, 10), (G2, 9), (WILD, 7)], ids=["b2", "kron", "g2", "wild"])
@pytest.mark.parametrize("word", [(), (1,), (2,), (2, 1)], ids=lambda w: "w" + "".join(map(str, w)))
def test_truncated_completion_is_the_lower_completion(data, top, word):
    """Order by order a consistent completion is unique, so a seed's
    completion at a lower order is the truncation of a deeper one, byte for
    byte.  ``scattering._completed`` serves lower orders from its memo on
    this; the mutated seeds read degrees in their own coefficient basis."""
    assert truncations_are_completions(pattern_walk(group_seed(data), word), top) == top - 1


def test_truncated_completion_is_the_lower_completion_on_every_rank2_datum():
    assert sum(truncations_are_completions(group_seed(data), 3) for data in RANK2) == 37 * 2


def without_one_outgoing_atom(C):
    """C with one atom of one outgoing wall dropped, for every such atom (a
    wall left without atoms is dropped too)."""
    for i, w in enumerate(C.walls):
        if w.incoming:
            continue
        for j in range(len(w.factors)):
            factors = w.factors[:j] + w.factors[j + 1 :]
            rest = C.walls[:i] + ((replace(w, factors=factors),) if factors else ()) + C.walls[i + 1 :]
            yield replace(C, walls=rest)


def test_recompleting_with_one_outgoing_atom_dropped():
    """Stages insert next to walls of higher degree, which are already in the
    fan: each dropped atom must come back exactly."""
    cases = 0
    for data, order in [(B2, 6), (KRON, 6), (G2, 6), (WILD, 4)]:
        C = complete_rank2(build_initial(group_seed(data), order))
        for D in without_one_outgoing_atom(C):
            assert assert_same(D) == diagram_to_json(C)
            cases += 1
    assert cases == 66


# -- error paths, each pinned on both routes ----------------------------------


# -- the defect reader against the log of the loop ---------------------------


def test_defect_reader_matches_the_log_of_the_loop():
    """The lowest nonzero slice of log(1 + x) is that of x: first degree,
    terms and raised errors agree on bare and completed diagrams, and on
    completions with one outgoing wall dropped, over the box at orders 3
    and 5."""
    cases = 0
    for data in RANK2:
        for order in (3, 5):
            D = build_initial(group_seed(data), order)
            C = complete_rank2(D)
            dropped = [replace(C, walls=C.walls[:i] + C.walls[i + 1 :]) for i, w in enumerate(C.walls) if not w.incoming]
            for E in [D, C, *dropped]:
                args = (E.fan, E.frame, sum(E.seed.coeff_orders), order + 1)
                assert outcome(_defect_derivation, *args) == outcome(log_defect_derivation, *args)
                cases += 1
    assert cases == 436


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
    below the first stage; at order 1 there is no later stage, and the staged
    oracle sees it only in its closing loop."""
    msg = "completion left a defect at degree 1 below the current stage 2"
    assert assert_same(without_one_incoming_ray(data, 4)) == ("InvariantViolation", msg)
    msg = "completion finished but the loop still fails at degree 1"
    assert assert_same(without_one_incoming_ray(data, 1)) == ("InvariantViolation", msg)


def test_stage_that_does_not_cancel_its_defect(monkeypatch):
    """The invariant after every stage: once its factors are in, the degree-k
    slices of the loop vanish.  Doubling the exponent of every factor a stage
    adds breaks it."""
    insert = _OnlineFan.insert

    def doubled(fan, j, n0, atom):
        t, m, c = atom
        insert(fan, j, n0, (t, m, 2 * c) if fan.k >= 2 else atom)

    monkeypatch.setattr(_OnlineFan, "insert", doubled)
    with pytest.raises(InvariantViolation, match="completion stage 2 left degree-2 terms in the loop"):
        complete_rank2(build_initial(group_seed(B2), 4))


@pytest.mark.parametrize("change", ["drop", "add"])
def test_walls_that_differ_from_the_crossed_factors(monkeypatch, change):
    """The returned diagram must carry exactly the atoms the online fan
    crossed: a wall assembly that drops one new atom, or adds a second copy
    of one, is an invariant violation."""
    add_walls = scattering._add_walls

    def assemble(D, outgoing, new):
        new = dict(new)
        ray, atoms = new.popitem()
        atoms = atoms[:-1] if change == "drop" else atoms + atoms[-1:]
        if atoms:
            new[ray] = atoms
        return add_walls(D, outgoing, new)

    monkeypatch.setattr(scattering, "_add_walls", assemble)
    with pytest.raises(InvariantViolation) as err:
        complete_rank2(build_initial(group_seed(B2), 4))
    assert str(err.value) == "completion assembled walls that differ from the factors it crossed"


def test_completion_crosses_no_loop_after_its_stages(monkeypatch):
    """Completion reads the loop off its online fan alone: the one-shot
    crossing of ``check_consistency`` (``_cross_fan``) is not called."""
    calls = []
    cross_fan = scattering._cross_fan
    monkeypatch.setattr(scattering, "_cross_fan", lambda *args: calls.append(args) or cross_fan(*args))
    C = complete_rank2(build_initial(group_seed(KRON), 8))
    assert calls == []
    assert check_consistency(C).consistent and len(calls) == 1


# -- the one-shot check on completions ----------------------------------------


def completions(shapes):
    """The completions of the shapes that tier-1 completes against the
    staged oracle (``test_box_of_valid_data`` and
    ``test_mutated_prefix_seeds``), and of the north-star ladder."""
    if shapes == "box":
        for data in RANK2:
            order = 8 if tame(data) else 6 if data.r[0] * data.r[1] <= 2 else 5
            yield complete_rank2(build_initial(group_seed(data), order))
    elif shapes == "prefixes":
        for data, word in product([A2, B2, KRON, G2, WILD], [(1,), (2,), (1, 2), (2, 1, 2)]):
            yield complete_rank2(build_initial(pattern_walk(group_seed(data), word), 4 if data is not WILD else 3))
    else:
        for data, order in [(KRON, 10), (KRON, 12), (KRON, 14), (KRON, 16), (B2, 14)]:
            yield complete_rank2(build_initial(group_seed(data), order))


@pytest.mark.parametrize("shapes, count", [("box", 37), ("prefixes", 20), ("ladder", 5)])
def test_one_shot_check_closes_every_completion(shapes, count):
    """Completion trusts its online stages and does not cross its result
    again, so the one-shot loop (``check_consistency``, over ``_cross_fan``)
    must find every completion it returns consistent."""
    reports = [check_consistency(C) for C in completions(shapes)]
    assert len(reports) == count
    assert all(rep.consistent for rep in reports), [rep.first_failure_degree for rep in reports]


# -- the online fan against the expanded crossing -----------------------------


def staged_fan(fan, d, series_order, late):
    """An `_OnlineFan` over a diagram's fan, and the stage driver that fills
    it: ``insert_stage(k)`` inserts the factors due at stage k, each after
    the factors already in that precede it in the fan.  Every factor is due
    at stage 0, or (``late``) at the stage of its degree, the last stage for
    a degree at or above it, as completion inserts its factors."""
    online, placed, due = _OnlineFan(d, series_order), [], {}
    for i, ((r0, r1), atom) in enumerate((r, x) for r, atoms in fan for x in atoms):
        stage = min(sum(atom[0]), series_order - 1) if late else 0
        due.setdefault(stage, []).append((i, (r1, -r0), atom))

    def insert_stage(k):
        for i, n, atom in due.get(k, ()):
            pos = bisect_left(placed, i)
            placed.insert(pos, i)
            online.insert(pos, n, atom)

    return online, insert_stage


FANS = [(B2, (), 6), (KRON, (), 6), (KRON, (2,), 6), (G2, (), 5), (WILD, (), 4), (WILD, (), 6)]
FAN_IDS = ["b2", "kron", "kron-w2", "g2", "wild", "wild-o6"]


def online_matches_expanded_crossing(data, word, order, completed, late):
    """Slice by slice, the online images equal those of the expanded
    crossing (``reference_cross_fan``); ``defect`` reads slice k right after
    the stage's inserts."""
    D = build_initial(pattern_walk(group_seed(data), word), order)
    if completed:
        D = complete_rank2(D)
    so = order + 1
    d = sum(D.seed.coeff_orders)
    online, insert_stage = staged_fan(D.fan, d, so, late)
    insert_stage(0)
    images = reference_cross_fan(expanded(D.fan, so), True, d, so)
    for k in range(1, so):
        online.step()
        insert_stage(k)
        for a, sl in enumerate(online.defect()):
            shift = LaurentSeries.monomial(tuple(-x for x in _unit(2, a)), (0,) * d, 1, so)
            assert sl.terms == series_mul(images[a], shift).degree_slice(k).terms, (k, a)


@pytest.mark.parametrize("data, word, order", FANS, ids=FAN_IDS)
@pytest.mark.parametrize("completed", [False, True], ids=["initial", "completed"])
def test_online_fan_matches_one_shot_crossing(data, word, order, completed):
    """Every factor inserted before the first stage, on a consistent and on
    an inconsistent diagram, over the base seed and over the Kronecker seed
    mutated at 2, whose frame is not the identity."""
    online_matches_expanded_crossing(data, word, order, completed, False)


@pytest.mark.parametrize("data, word, order", FANS, ids=FAN_IDS)
@pytest.mark.parametrize("completed", [False, True], ids=["initial", "completed"])
def test_online_fan_matches_one_shot_crossing_stage_by_stage(data, word, order, completed):
    """Each factor inserted at the stage of its degree, as completion does,
    so that slice k of every later position is stale until it is rebuilt;
    on the completed wild diagram at order 6 one stage inserts factors at
    several positions."""
    online_matches_expanded_crossing(data, word, order, completed, True)


@pytest.mark.parametrize("reader", ["closed", "defect", "step"])
def test_online_fan_reads_no_stale_slice(reader):
    """A factor inserted at stage k changes slice k at its own position and
    every later one; ``insert`` leaves that to ``_flush``, which must run
    before any read.  On a completed diagram with each factor inserted at
    the stage of its degree, the loop closes at every stage: ``closed()``
    and ``defect()`` see it right after the stage's inserts, and ``step()``
    builds the next stage on rebuilt slices, so that the last image, read
    once at the end, is its generator in every slice."""
    D = complete_rank2(build_initial(group_seed(WILD), 5))
    d, so = sum(D.seed.coeff_orders), 6
    online, insert_stage = staged_fan(D.fan, d, so, True)
    inserted = 0
    for k in range(1, so):
        online.step()
        before = len(online.positions)
        insert_stage(k)
        inserted += k > 1 and len(online.positions) > before
        if reader == "closed":
            assert online.closed(), k
        elif reader == "defect":
            assert not any(online.defect()), k
    assert inserted == so - 2  # every stage from 2 on inserted outgoing factors
    assert online.closed()
    assert online._input(len(online.positions)) == _generator_slices(2, d, so)


# -- the one-shot loop against the expanded crossing -------------------------


def reference_cross_fan(fan, ccw, d, series_order):
    """Images of the generators after crossing an expanded fan (`expanded`) in
    order: each ray's function at once, by ``wall_cross`` per generator, with
    the ray's normal turned clockwise from it, signed -1 for a clockwise
    path."""
    images = [LaurentSeries.monomial(_unit(2, i), (0,) * d, 1, series_order) for i in range(2)]
    for (r0, r1), f in fan:
        images = [wall_cross(x, f, (r1, -r0), 1 if ccw else -1) for x in images]
    return images


CROSSINGS = [(B2, 8), (KRON, 9), (G2, 7), (WILD, 5)]
CROSSING_IDS = ["b2", "kron", "g2", "wild"]


@pytest.mark.parametrize("data, order", CROSSINGS, ids=CROSSING_IDS)
@pytest.mark.parametrize("word", [(), (2, 1)], ids=["base", "w21"])
@pytest.mark.parametrize("drop", [False, True], ids=["closed", "dropped"])
def test_factor_crossing_matches_expanded_crossing(data, order, word, drop):
    """The loop of a completion, over the base seed and over a mutated seed's
    frame, closed and with its last outgoing wall dropped."""
    D = complete_rank2(build_initial(pattern_walk(group_seed(data), word), order))
    walls = list(D.walls)
    if drop:
        walls.remove([w for w in walls if not w.incoming][-1])
    fan = replace(D, walls=walls).fan
    d, so = sum(D.seed.coeff_orders), order + 1
    got = one_shot_images(fan, True, d, so)
    assert got == reference_cross_fan(expanded(fan, so), True, d, so)
    closed = [LaurentSeries.monomial(_unit(2, i), (0,) * d, 1, so) for i in range(2)]
    assert (got == closed) is not drop


def test_factor_crossing_matches_expanded_crossing_on_every_datum():
    """The loop of each of the 37 valid rank-2 completions, at order 4 (3
    where b12 b21 <= -9), closed and with its last outgoing wall dropped."""
    cases = 0
    for data in RANK2:
        order = 3 if data.B[0][1] * data.B[1][0] <= -9 else 4
        D = complete_rank2(build_initial(group_seed(data), order))
        dropped = list(D.walls)
        dropped.remove([w for w in dropped if not w.incoming][-1])
        d, so = sum(D.seed.coeff_orders), order + 1
        for fan in (D.fan, replace(D, walls=dropped).fan):
            assert one_shot_images(fan, True, d, so) == reference_cross_fan(expanded(fan, so), True, d, so), data
            cases += 1
    assert cases == 74


def test_binomial_memo_lives_one_computation():
    """Each completion and each loop builds its rows C(e, q) for q below its
    own order: after a computation at order 3, one at order 9 of the same
    datum still matches the staged completion and the expanded crossing."""
    s = group_seed(KRON)
    for order in (3, 9):
        D = build_initial(s, order)
        C = complete_rank2(D)
        assert diagram_to_json(C) == diagram_to_json(reference_complete_rank2(D))
        fan, d, so = C.fan, sum(C.seed.coeff_orders), order + 1
        assert one_shot_images(fan, True, d, so) == reference_cross_fan(expanded(fan, so), True, d, so)


@pytest.mark.parametrize("data, order", CROSSINGS, ids=CROSSING_IDS)
def test_clockwise_partial_path_matches_expanded_crossing(data, order):
    D = complete_rank2(build_initial(group_seed(data), order))
    path = PathSpec((1000, 1), (-1000, 1), ccw=False)
    stop = _turn(path.end, path.start, False)
    turn = lambda r: _turn(r[0], path.start, False)
    fan = sorted((r for r in expanded(D.fan, order + 1) if turn(r) < stop), key=turn)
    assert len(fan) >= 3
    want = reference_cross_fan(fan, False, sum(D.seed.coeff_orders), order + 1)
    assert path_ordered_product(D, path).m_images == want


# -- the kernel's checks ------------------------------------------------------


def test_factor_of_degree_below_one_is_rejected():
    """A diagram refuses a factor of degree below 1 where it is made, so no
    crossing, completion or ``_Factor`` ever sees one."""
    s = group_seed(A2)
    for t in ((0, 0), (1, -2)):
        walls = (Wall((1, 0), (((1, 0), (1, 0), 1),)), Wall((-1, 0), ((t, (-1, 0), 1),)))
        with pytest.raises(ValueError, match=r"has degree -?\d+ < 1 in the seed's basis"):
            ScatteringDiagram(walls, 4, s)


def test_factor_below_the_stage_is_rejected():
    """Slices below the stage are final: a factor of lower degree would change them."""
    fan = _OnlineFan(2, 4)
    fan.step()
    fan.step()
    with pytest.raises(ValueError, match="wall factor of coefficient degree 1 at stage 2"):
        fan.insert(0, (0, 1), ((1, 0), (1, 0), 1))
    assert fan.positions == []


def test_factor_at_or_above_the_order_reads_and_changes_nothing(monkeypatch):
    """A factor of degree delta reads the slices below order - delta only
    (``_Factor.reads``): at order 4 one of degree 4, 5 or 8 prepares no slice
    and leaves every image as it was, in the one-shot loop and in the online
    fan, also when it comes in at a later stage."""
    low, high = ((1, 0), (1, 0), 2), [((4, 0), (1, 0), 3), ((2, 3), (1, 0), 1), ((8, 0), (1, 0), 1)]
    prepared = []
    prepare = _Factor.prepare
    monkeypatch.setattr(_Factor, "prepare", lambda f, sl: prepared.append(f.delta) or prepare(f, sl))
    factors = [_Factor((0, 1), atom, 2, 4, {}) for atom in (low, *high)]
    assert [f.reads for f in factors] == [3, 0, 0, 0]
    for i in range(2):
        alone, crossed = _generator_slices(2, 2, 4)[i], _generator_slices(2, 2, 4)[i]
        _cross_in_place(alone, factors[0])
        for f in factors:
            _cross_in_place(crossed, f)
        assert crossed == alone and any(alone[1:]) == (i == 1), i  # the low factor moves z^{e_2} only
    fan, alone = _OnlineFan(2, 4), _OnlineFan(2, 4)
    for f in (fan, alone):
        f.insert(0, (0, 1), low)
    fan.insert(0, (0, 1), high[0])
    fan.insert(2, (0, 1), high[1])
    for k in range(1, 4):
        fan.step()
        alone.step()
        fan.insert(1, (0, 1), high[2])
        assert fan.defect() == alone.defect(), k
    assert len(fan.positions) == 6 and set(prepared) == {1}


def test_factor_guards_the_slots_before_any_key_forms():
    """An image term is a generator times at most order - 1 factor monomials:
    at order 4 a slot of 715827882 fits (1 + 3 * 715827882 = 2^31 - 1), one
    more does not, and the fan is left as it was."""
    fits = (2**31 - 2) // 3
    factor = _Factor((0, 1), ((1, 0), (fits, 0), 1), 2, 4, {})
    assert factor.bound == 2**31 - 1
    slices = _generator_slices(2, 2, 4)[1]
    _cross_in_place(slices, factor)
    image = LaurentSeries._make({k: c for sl in slices for k, c in sl.items()}, 4, (2, 2), factor.bound)
    assert image == LaurentSeries({((0, 1), (0, 0)): 1, ((fits, 1), (1, 0)): 1}, 4)
    fan, alone = _OnlineFan(2, 4), _OnlineFan(2, 4)
    for f in (fan, alone):
        f.insert(0, (0, 1), ((1, 0), (fits, 0), 1))
    with pytest.raises(OverflowError):
        fan.insert(0, (0, 1), ((1, 0), (fits + 1, 0), 1))
    assert len(fan.positions) == 1 and fan.bound == alone.bound == 2**31 - 1
    for _ in range(3):
        fan.step()
        alone.step()
        assert fan.defect() == alone.defect()
