"""Orientation validity and the 2-SAT enumerator against brute force."""

from conftest import is_valid, oracle_all_vertices, random_wallspace
from wallcube.complex import DEFAULT_VERTEX_CAP, enumerate_valid
from wallcube.generators import fig3, grid
from wallcube.wallspace import Wallspace, validate


def cases():
    out = [fig3(), grid(2), grid(3)]
    for s in range(15):
        ws = random_wallspace(s, with_metric=False)
        if validate(ws).ok:
            out.append(ws)
    return out


def test_is_valid_matches_zero_cube_oracle():
    for ws in cases():
        mine = [m for m in range(1 << ws.nwalls()) if is_valid(ws, m)]
        assert mine == oracle_all_vertices(ws)


def test_enumerate_valid_matches_oracle():
    for ws in cases():
        out = enumerate_valid(ws, DEFAULT_VERTEX_CAP)
        assert sorted(out) == oracle_all_vertices(ws)
    no_walls = Wallspace(["x"], [])
    assert enumerate_valid(no_walls, DEFAULT_VERTEX_CAP) == {0: 0}
