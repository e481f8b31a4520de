"""Property tests: the derived separation masks (`open_sides`, `sides`,
`wall_sides`) against the set-based oracles.

Wallspaces are drawn two ways: `conftest.random_wallspace` by seed, and
arbitrary halfspace pairs on up to 6 points (empty sides, vacuous and
non-covering walls included) with wall indices in a drawn order, so that
index and position differ.  Failures of the second kind shrink to a small
wallspace.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    oracle_separates_compact_wall,
    oracle_separates_sets,
    oracle_separation_count,
    oracle_transverse,
    oracle_wall_separates,
    osculate,
    random_wallspace,
    wall_position,
)
from wallcube.wallspace import (
    Wall,
    Wallspace,
    separating,
    separation_count,
    sides,
    wall_sides,
)

BOUNDED = settings(max_examples=200, deadline=None)


@st.composite
def wallspaces(draw):
    if draw(st.booleans()):
        return random_wallspace(draw(st.integers(0, 2**32)),
                                with_metric=False)
    n = draw(st.integers(1, 6))
    side = st.integers(0, (1 << n) - 1)
    pairs = draw(st.lists(st.tuples(side, side), max_size=7))
    order = draw(st.permutations(range(len(pairs))))
    return Wallspace([f"p{i}" for i in range(n)],
                     [Wall(i, u, v) for i, (u, v) in zip(order, pairs)])


@BOUNDED
@given(wallspaces())
def test_separation_count_matches_oracle(ws):
    for x in ws.points:
        for y in ws.points:
            assert separation_count(ws, x, y) == \
                oracle_separation_count(ws, x, y)


@BOUNDED
@given(wallspaces())
def test_wall_separation_and_osculation_match_oracle(ws):
    # the walls separating walls i and j (a closed halfspace of each in
    # distinct open sides), from the pairs of the two walls
    wall = ws.derived(wall_sides)
    idxs = ws.wall_indices()
    for i in idxs:
        for j in idxs:
            separators = [k for k in idxs if k not in (i, j)
                          and oracle_wall_separates(ws, k, i, j)]
            mask = separating(wall[wall_position(ws, i)],
                              wall[wall_position(ws, j)])
            for k in idxs:
                if k not in (i, j):
                    assert bool(mask >> wall_position(ws, k) & 1) == \
                        (k in separators)
            if i != j:
                assert osculate(ws, i, j) == \
                    (not oracle_transverse(ws, i, j) and not separators)


@BOUNDED
@given(wallspaces(), st.data())
def test_set_separation_matches_oracle(ws, data):
    wall = ws.derived(wall_sides)
    side = st.integers(0, ws.full)
    a, b = data.draw(side), data.draw(side)
    for mask_a, mask_b in ((a, b), (a, 0), (0, b), (0, 0)):
        expect = any(oracle_separates_sets(ws, w.index, mask_a, mask_b)
                     for w in ws.walls)
        assert bool(separating(sides(ws, mask_a),
                               sides(ws, mask_b))) == expect
    # a set against a wall, by a wall other than that one
    for pos, w in enumerate(ws.walls):
        expect = any(oracle_separates_compact_wall(ws, w2.index, a, w.index)
                     for w2 in ws.walls if w2.index != w.index)
        got = separating(sides(ws, a), wall[pos]) & ~(1 << pos)
        assert bool(got) == expect
