"""Unit and property tests for the mesh topology."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.topology import MeshTopology


class TestShape:
    def test_perfect_square(self):
        mesh = MeshTopology(16)
        assert (mesh.width, mesh.height) == (4, 4)

    def test_non_square_fits_all_tiles(self):
        mesh = MeshTopology(12)
        assert mesh.width * mesh.height >= 12

    def test_single_tile(self):
        mesh = MeshTopology(1)
        assert mesh.hops(0, 0) == 0

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            MeshTopology(0)


class TestHops:
    def test_adjacent_tiles_one_hop(self):
        mesh = MeshTopology(16)
        assert mesh.hops(0, 1) == 1
        assert mesh.hops(0, 4) == 1  # vertically adjacent in a 4x4

    def test_corner_to_corner_is_diameter(self):
        mesh = MeshTopology(16)
        assert mesh.hops(0, 15) == 6
        assert max(mesh.hops(0, t) for t in range(16)) == 6

    def test_self_distance_zero(self):
        mesh = MeshTopology(9)
        assert all(mesh.hops(t, t) == 0 for t in range(9))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            MeshTopology(4).hops(0, 4)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 64),
    data=st.data(),
)
def test_hop_metric_properties(n, data):
    """Property: hop count is a metric (symmetric, triangle inequality)."""
    mesh = MeshTopology(n)
    a = data.draw(st.integers(0, n - 1))
    b = data.draw(st.integers(0, n - 1))
    c = data.draw(st.integers(0, n - 1))
    assert mesh.hops(a, b) == mesh.hops(b, a)
    assert mesh.hops(a, c) <= mesh.hops(a, b) + mesh.hops(b, c)
    assert (mesh.hops(a, b) == 0) == (a == b)


class TestRoutes:
    def test_route_endpoints(self):
        mesh = MeshTopology(16)
        path = mesh.route(0, 15)
        assert path[0] == 0 and path[-1] == 15
        assert len(path) == mesh.hops(0, 15) + 1

    def test_route_is_x_then_y(self):
        mesh = MeshTopology(16)  # 4x4
        # 0 -> 10: x moves first (0->1->2), then y (2->6->10).
        assert mesh.route(0, 10) == [0, 1, 2, 6, 10]

    def test_route_to_self(self):
        assert MeshTopology(9).route(4, 4) == [4]

    def test_route_links_adjacent(self):
        mesh = MeshTopology(16)
        for a, b in mesh.route_links(0, 15):
            assert mesh.hops(a, b) == 1

    def test_route_deterministic(self):
        mesh = MeshTopology(25)
        assert mesh.route(3, 21) == mesh.route(3, 21)
