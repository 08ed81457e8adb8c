import math

import numpy as np
import pytest

from amplan import voronoi as vor
from amplan.geometry import Superquadric2
from oracles import enumerate_shortest_path, polygon_area, sq2_boundary, sq2_inside_outside


def circle(r, cx, cy):
    return Superquadric2(a1=r, a2=r, eps=1.0, center=(cx, cy))


PILLAR_BOX = (0.0, 0.0, 6.0, 4.0)


def pillar_obstacles():
    return [circle(0.35, 2.0, 1.0), circle(0.35, 2.0, 3.0), circle(0.35, 4.0, 2.0)]


def pair_plane(sq_i, sq_j):
    return vor.bisectors([sq_i, sq_j])[(0, 1)]


class TestBisector:
    def test_congruent_circles(self):
        hp = pair_plane(circle(0.5, 0.0, 0.0), circle(0.5, 4.0, 0.0))
        np.testing.assert_allclose(hp.normal, [1.0, 0.0], atol=1e-9)
        assert hp.offset == pytest.approx(2.0, abs=1e-9)

    def test_unequal_circles(self):
        # closest boundary points (1,0) and (4,0): midpoint x = 2.5
        hp = pair_plane(circle(1.0, 0.0, 0.0), circle(2.0, 6.0, 0.0))
        np.testing.assert_allclose(hp.normal, [1.0, 0.0], atol=1e-8)
        assert hp.offset == pytest.approx(2.5, abs=1e-8)

    def test_overlapping_raises(self):
        with pytest.raises(vor.VoronoiError):
            pair_plane(circle(1.0, 0.0, 0.0), circle(1.0, 1.0, 0.0))

    def test_first_overlapping_pair_named(self):
        # (0, 2) and (1, 3) overlap; (0, 2) comes first in (i, j) order
        obs = [circle(1.0, 0.0, 0.0), circle(1.0, 5.0, 0.0),
               circle(1.0, 1.0, 0.0), circle(1.0, 5.5, 0.0)]
        with pytest.raises(vor.VoronoiError, match="obstacles 0 and 2 overlap"):
            vor.bisectors(obs)

    def test_all_pairs_keyed_in_order(self):
        planes = vor.bisectors(pillar_obstacles())
        assert list(planes) == [(0, 1), (0, 2), (1, 2)]
        assert all(hp.pair == key for key, hp in planes.items())
        assert vor.bisectors([circle(0.5, 2.0, 2.0)]) == {}

    def test_mirrored_boxy_shapes(self):
        sq = dict(a1=0.4, a2=0.3, eps=0.4)
        hp = pair_plane(Superquadric2(center=(-1.0, 0.0), **sq),
                      Superquadric2(center=(1.0, 0.0), **sq))
        np.testing.assert_allclose(np.abs(hp.normal), [1.0, 0.0], atol=1e-6)
        assert hp.offset * np.sign(hp.normal[0]) == pytest.approx(0.0, abs=1e-6)


class TestCells:
    def test_single_obstacle_cell_is_box(self):
        cells = vor.build_cells([circle(0.5, 2.0, 2.0)], PILLAR_BOX)
        assert len(cells) == 1
        assert polygon_area(cells[0].vertices) == pytest.approx(24.0, abs=1e-12)
        assert all(src[0] == "box" for src in cells[0].edge_sources)

    def test_two_circles_split_evenly(self):
        cells = vor.build_cells([circle(0.5, 1.0, 2.0), circle(0.5, 3.0, 2.0)],
                                (0.0, 0.0, 4.0, 4.0))
        assert polygon_area(cells[0].vertices) == pytest.approx(8.0, abs=1e-9)
        assert polygon_area(cells[1].vertices) == pytest.approx(8.0, abs=1e-9)
        assert cells[0].vertices[:, 0].max() == pytest.approx(2.0, abs=1e-9)
        assert cells[1].vertices[:, 0].min() == pytest.approx(2.0, abs=1e-9)

    def test_pillar_tiling_is_exact(self):
        cells = vor.build_cells(pillar_obstacles(), PILLAR_BOX)
        total = sum(polygon_area(c.vertices) for c in cells)
        assert total == pytest.approx(24.0, abs=1e-6)

    def test_cells_contain_their_obstacles(self):
        obstacles = pillar_obstacles()
        cells = vor.build_cells(obstacles, PILLAR_BOX)
        gammas = np.linspace(-math.pi, math.pi, 64, endpoint=False)
        for sq, cell in zip(obstacles, cells):
            pts = sq2_boundary(sq, gammas)
            # every boundary point on the cell side of every cell edge
            m = len(cell.vertices)
            for k in range(m):
                v0, v1 = cell.vertices[k], cell.vertices[(k + 1) % m]
                e = v1 - v0
                inward = np.array([-e[1], e[0]])  # cells are counter-clockwise
                assert np.min((pts - v0) @ inward) > -1e-9

    def test_counter_clockwise_and_convex(self):
        for cell in vor.build_cells(pillar_obstacles(), PILLAR_BOX):
            v = cell.vertices
            m = len(v)
            assert polygon_area(cell.vertices) > 0.0
            for k in range(m):
                e1 = v[(k + 1) % m] - v[k]
                e2 = v[(k + 2) % m] - v[(k + 1) % m]
                assert e1[0] * e2[1] - e1[1] * e2[0] > -1e-9

    def test_obstacle_outside_box_raises(self):
        with pytest.raises(vor.VoronoiError):
            vor.build_cells([circle(0.5, 0.2, 2.0)], PILLAR_BOX)

    def test_overlap_raises_with_pair_names(self):
        obs = [circle(0.5, 2.0, 2.0), circle(0.5, 2.4, 2.0)]
        with pytest.raises(vor.VoronoiError, match="0 and 1"):
            vor.build_cells(obs, PILLAR_BOX)


class TestGraph:
    def test_nodes_deduplicated(self):
        cells = vor.build_cells(pillar_obstacles(), PILLAR_BOX)
        graph = vor.build_graph(cells)
        n = len(graph.nodes)
        for i in range(n):
            for j in range(i + 1, n):
                assert np.linalg.norm(graph.nodes[i] - graph.nodes[j]) > vor.MERGE_RADIUS

    def test_edge_weights_match_geometry(self):
        cells = vor.build_cells(pillar_obstacles(), PILLAR_BOX)
        graph = vor.build_graph(cells)
        for e in graph.edges:
            d = float(np.linalg.norm(graph.nodes[e.a] - graph.nodes[e.b]))
            assert e.weight == pytest.approx(d, abs=1e-9)
            assert e.weight > 0.0

    def test_box_edge_normals_point_inward(self):
        cells = vor.build_cells(pillar_obstacles(), PILLAR_BOX)
        graph = vor.build_graph(cells)
        xmin, ymin, xmax, ymax = PILLAR_BOX
        cx, cy = 0.5 * (xmin + xmax), 0.5 * (ymin + ymax)
        for e in graph.edges:
            if e.source[0] != "box":
                continue
            mid = 0.5 * (graph.nodes[e.a] + graph.nodes[e.b])
            n = np.array([math.cos(e.normal_angle), math.sin(e.normal_angle)])
            assert n @ (np.array([cx, cy]) - mid) > 0.0

    def test_bisector_edges_equidistant_to_obstacles(self):
        # equal circles: the straight bisector is the exact equidistant locus
        obstacles = pillar_obstacles()
        cells = vor.build_cells(obstacles, PILLAR_BOX)
        graph = vor.build_graph(cells)
        checked = 0
        for e in graph.edges:
            if e.source[0] != "bisector":
                continue
            _, i, j = e.source
            for t in np.linspace(0.0, 1.0, 9):
                p = (1 - t) * graph.nodes[e.a] + t * graph.nodes[e.b]
                di = np.linalg.norm(p - np.asarray(obstacles[i].center)) - obstacles[i].a1
                dj = np.linalg.norm(p - np.asarray(obstacles[j].center)) - obstacles[j].a1
                assert abs(di - dj) < 1e-6
            checked += 1
        assert checked >= 2

    def test_edges_clear_of_all_obstacles(self):
        obstacles = pillar_obstacles()
        cells = vor.build_cells(obstacles, PILLAR_BOX)
        graph = vor.build_graph(cells)
        for e in graph.edges:
            for t in np.linspace(0.0, 1.0, 20):
                p = (1 - t) * graph.nodes[e.a] + t * graph.nodes[e.b]
                for sq in obstacles:
                    assert sq2_inside_outside(sq, p) > 0.0


class TestSolvePath:
    def graph(self):
        cells = vor.build_cells(pillar_obstacles(), PILLAR_BOX)
        return vor.build_graph(cells)

    def test_matches_enumeration_between_graph_nodes(self):
        graph = self.graph()
        edges = [(e.a, e.b, e.weight) for e in graph.edges]
        for src in range(len(graph.nodes)):
            for dst in range(src + 1, len(graph.nodes)):
                path = vor.solve_path(graph, graph.nodes[src], graph.nodes[dst])
                assert path.found
                oracle = enumerate_shortest_path(graph.nodes, edges, src, dst)
                assert path.cost == pytest.approx(oracle, abs=1e-9)

    def test_cost_equals_segment_lengths(self):
        graph = self.graph()
        path = vor.solve_path(graph, (0.3, 2.0), (5.6, 2.1))
        assert path.found
        seglen = sum(np.linalg.norm(path.nodes[k + 1] - path.nodes[k])
                     for k in range(len(path.nodes) - 1))
        assert path.cost == pytest.approx(seglen, abs=1e-9)
        assert len(path.edge_normals) == len(path.nodes) - 1

    def test_same_edge_start_and_goal(self):
        cells = vor.build_cells([circle(0.5, 1.0, 2.0), circle(0.5, 3.0, 2.0)],
                                (0.0, 0.0, 4.0, 4.0))
        graph = vor.build_graph(cells)
        path = vor.solve_path(graph, (2.0, 1.2), (2.0, 2.8))
        assert path.found
        assert path.cost == pytest.approx(1.6, abs=1e-9)
        np.testing.assert_allclose(path.nodes[0], [2.0, 1.2], atol=1e-9)
        np.testing.assert_allclose(path.nodes[-1], [2.0, 2.8], atol=1e-9)

    def test_offgraph_points_project_onto_edges(self):
        graph = self.graph()
        start, goal = np.array([1.1, 0.9]), np.array([4.9, 3.1])
        path = vor.solve_path(graph, start, goal)
        assert path.found
        for endpoint in (path.nodes[0], path.nodes[-1]):
            dmin = min(_point_segment_distance(endpoint, graph.nodes[e.a], graph.nodes[e.b])
                       for e in graph.edges)
            assert dmin < 1e-9

    def test_determinism(self):
        obstacles = pillar_obstacles()
        out = []
        for _ in range(2):
            cells = vor.build_cells(obstacles, PILLAR_BOX)
            graph = vor.build_graph(cells)
            path = vor.solve_path(graph, (0.5, 0.5), (5.5, 3.5))
            out.append((vor.dump_diagram(cells, graph, ".17g"), path.nodes.tobytes(), path.cost))
        assert out[0] == out[1]


def _point_segment_distance(p, a, b):
    ab = b - a
    t = np.clip((p - a) @ ab / (ab @ ab), 0.0, 1.0)
    return float(np.linalg.norm(p - (a + t * ab)))


class TestDump:
    def test_dump_structure(self):
        cells = vor.build_cells(pillar_obstacles(), PILLAR_BOX)
        graph = vor.build_graph(cells)
        text = vor.dump_diagram(cells, graph, ".17g")
        lines = text.strip().split("\n")
        assert lines[0].startswith("#")
        assert sum(1 for ln in lines if ln.startswith("cell ")) == 3
        assert sum(1 for ln in lines if ln.startswith("edge ")) == len(graph.edges)
