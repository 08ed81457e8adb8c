"""Maximum-clearance Voronoi diagram over disjoint convex planar SQ obstacles.

Cells are built by clipping the world box with the perpendicular bisectors of
the closest proxy pairs between obstacles; the shared cell edges plus the box
boundary form a clearance graph searched with uniform-cost search.  The
straight bisector is an approximation of the exact equidistant locus for
non-congruent shapes, but it is always a separating line for convex shapes.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .geometry import Superquadric2, boundary_points, closest_pairs, shape_rows

MERGE_RADIUS = 1e-7
CLIP_TOL = 1e-12


class VoronoiError(ValueError):
    pass


@dataclass(frozen=True)
class Hyperplane2:
    """Separating line {p : n.p = c} with unit normal n, for obstacle pair (i, j)."""

    normal: tuple
    offset: float
    pair: tuple


@dataclass
class VoronoiCell:
    index: int
    vertices: np.ndarray          # (N, 2), counter-clockwise
    edge_sources: list            # per edge k: ("bisector", i, j) or ("box", side)


@dataclass
class GraphEdge:
    a: int
    b: int
    weight: float
    normal_angle: float
    source: tuple


@dataclass
class ClearanceGraph:
    nodes: np.ndarray             # (N, 2)
    edges: list                   # of GraphEdge


@dataclass
class SolutionPath:
    found: bool
    nodes: np.ndarray             # (K, 2) ordered positions, empty when not found
    edge_normals: np.ndarray      # (K-1,) normal orientation [rad] per edge
    cost: float = math.inf


def bisectors(obstacles: list[Superquadric2]) -> dict[tuple, Hyperplane2]:
    """Perpendicular bisectors {(i, j): Hyperplane2} of the closest proxy pairs of
    every obstacle pair i < j, solved in one closest_pairs call."""
    i, j = np.triu_indices(len(obstacles), 1)
    rows = shape_rows(obstacles)
    res = closest_pairs(rows[:, i], rows[:, j])
    hit = np.flatnonzero(res.gap <= 0.0)
    if hit.size:
        k = hit[0]
        raise VoronoiError(f"obstacles {i[k]} and {j[k]} overlap (gap {res.gap[k]:.4g})")
    p = boundary_points(rows[:, np.concatenate([i, j])], res.gammas.reshape(-1))
    pi, pj = p[:, :i.size].T, p[:, i.size:].T
    # the norm and the offset as one BLAS dot per pair, (1, 2) @ (2, 1) matmuls: an
    # elementwise sum rounds differently and moves the emitted diagram's last digits
    d = (pj - pi)[:, None]
    n = d / np.sqrt(d @ d.transpose(0, 2, 1))
    c = (n @ (0.5 * (pi + pj))[:, :, None])[:, 0, 0]
    return {(int(a), int(b)): Hyperplane2(normal=(float(nx), float(ny)), offset=float(ck),
                                          pair=(int(a), int(b)))
            for a, b, (nx, ny), ck in zip(i, j, n[:, 0], c)}


def _box_polygon(box):
    xmin, ymin, xmax, ymax = box
    verts = np.array([[xmin, ymin], [xmax, ymin], [xmax, ymax], [xmin, ymax]], dtype=float)
    sources = [("box", 0), ("box", 1), ("box", 2), ("box", 3)]  # bottom, right, top, left
    return verts, sources


def _clip(verts, sources, normal, offset, label):
    """Clip a labeled polygon against the half-plane n.p <= c (Sutherland-Hodgman)."""
    n = np.asarray(normal)
    out_v, out_s = [], []
    m = len(verts)
    for k in range(m):
        v0, v1 = verts[k], verts[(k + 1) % m]
        l0 = sources[k]
        d0 = float(n @ v0) - offset
        d1 = float(n @ v1) - offset
        in0, in1 = d0 <= CLIP_TOL, d1 <= CLIP_TOL
        if in0:
            out_v.append(v0)
            out_s.append(l0)
            if not in1:
                t = d0 / (d0 - d1)
                out_v.append(v0 + t * (v1 - v0))
                out_s.append(label)
        elif in1:
            t = d0 / (d0 - d1)
            out_v.append(v0 + t * (v1 - v0))
            out_s.append(l0)
    if not out_v:
        return np.zeros((0, 2)), []
    # drop degenerate edges left by clipping through vertices
    cv, cs = [], []
    m = len(out_v)
    for k in range(m):
        nxt = out_v[(k + 1) % m]
        if np.linalg.norm(out_v[k] - nxt) > 1e-11:
            cv.append(out_v[k])
            cs.append(out_s[k])
    return np.array(cv), cs


def check_in_box(obstacles: list[Superquadric2], box):
    """Raise VoronoiError naming the first obstacle with one of 256 boundary
    samples outside the world box [xmin, ymin, xmax, ymax]."""
    xmin, ymin, xmax, ymax = box
    n = 256
    gammas = np.tile(np.linspace(-math.pi, math.pi, n, endpoint=False), len(obstacles))
    x, y = boundary_points(np.repeat(shape_rows(obstacles), n, axis=1), gammas)
    out = ((x < xmin) | (x > xmax) | (y < ymin) | (y > ymax)).reshape(-1, n).any(axis=1)
    if out.any():
        raise VoronoiError(f"obstacles[{int(np.argmax(out))}]: not contained in world_box")


def build_cells(obstacles: list[Superquadric2], box) -> list[VoronoiCell]:
    """One convex polygonal cell per obstacle, tiling the world box."""
    if not obstacles:
        raise VoronoiError("need at least one obstacle")
    xmin, ymin, xmax, ymax = box
    if not (xmin < xmax and ymin < ymax):
        raise VoronoiError("degenerate world box")
    check_in_box(obstacles, box)

    planes = bisectors(obstacles)
    cells = []
    for i, sq in enumerate(obstacles):
        verts, sources = _box_polygon(box)
        center = np.asarray(sq.center)
        for j in range(len(obstacles)):
            if j == i:
                continue
            hp = planes[(min(i, j), max(i, j))]
            n = np.asarray(hp.normal)
            c = hp.offset
            if float(n @ center) - c > 0.0:   # keep the side containing obstacle i
                n, c = -n, -c
            verts, sources = _clip(verts, sources, n, c, ("bisector",) + hp.pair)
            if len(verts) == 0:
                break
        if len(verts) < 3:
            raise VoronoiError(f"empty Voronoi cell for obstacle {i}")
        cells.append(VoronoiCell(index=i, vertices=verts, edge_sources=sources))
    return cells


_BOX_INWARD = {0: (0.0, 1.0), 1: (-1.0, 0.0), 2: (0.0, -1.0), 3: (1.0, 0.0)}


def build_graph(cells: list[VoronoiCell],
                merge_radius: float = MERGE_RADIUS) -> ClearanceGraph:
    """Deduplicated cell vertices and shared/box edges with their normals.

    Adjacent cells derive the same bisector independently, so their segment
    endpoints can disagree slightly (the straight-bisector approximation has
    no exact triple points for unequal obstacles); a coarser merge_radius
    snaps such pseudo-vertices together and drops the duplicate edges.
    """
    nodes: list[np.ndarray] = []

    def node_id(p):
        for k, q in enumerate(nodes):
            if np.linalg.norm(q - p) <= merge_radius:
                return k
        nodes.append(np.asarray(p, dtype=float))
        return len(nodes) - 1

    edges: dict[tuple, GraphEdge] = {}
    for cell in cells:
        m = len(cell.vertices)
        for k in range(m):
            v0, v1 = cell.vertices[k], cell.vertices[(k + 1) % m]
            a, b = node_id(v0), node_id(v1)
            if a == b:
                continue
            key = (min(a, b), max(a, b))
            if key in edges:
                continue
            src = cell.edge_sources[k]
            if src[0] == "box":
                nx, ny = _BOX_INWARD[src[1]]
            else:
                d = v1 - v0
                nx, ny = -d[1], d[0]   # perpendicular to the bisector segment
                nrm = math.hypot(nx, ny)
                nx, ny = nx / nrm, ny / nrm
            # weight from the merged node positions, so it always equals the
            # Euclidean node distance even after pseudo-vertex snapping
            w = float(np.linalg.norm(nodes[b] - nodes[a]))
            if w <= 1e-9:
                continue
            edges[key] = GraphEdge(a=key[0], b=key[1], weight=w,
                                   normal_angle=math.atan2(ny, nx), source=src)
    ordered = [edges[k] for k in sorted(edges)]
    return ClearanceGraph(nodes=np.array(nodes) if nodes else np.zeros((0, 2)), edges=ordered)


def _project_to_segment(p, a, b):
    ab = b - a
    t = float(np.clip((p - a) @ ab / (ab @ ab), 0.0, 1.0))
    q = a + t * ab
    return q, float(np.linalg.norm(p - q))


def _attach_point(nodes, edges, point):
    """Insert a temporary node at the nearest point of the graph to `point`."""
    best = None
    for ei, e in enumerate(edges):
        q, d = _project_to_segment(point, nodes[e.a], nodes[e.b])
        if best is None or d < best[1] - 1e-12:
            best = (ei, d, q)
    if best is None:
        raise VoronoiError("empty graph")
    ei, _, q = best
    e = edges[ei]
    for nid in (e.a, e.b):
        if np.linalg.norm(nodes[nid] - q) <= MERGE_RADIUS:
            return nodes, edges, nid
    nodes = nodes + [q]
    nid = len(nodes) - 1
    new_edges = edges[:ei] + edges[ei + 1:]
    for other in (e.a, e.b):
        w = float(np.linalg.norm(nodes[other] - q))
        if w > 1e-9:
            new_edges.append(GraphEdge(a=min(other, nid), b=max(other, nid), weight=w,
                                       normal_angle=e.normal_angle, source=e.source))
    return nodes, new_edges, nid


def solve_path(graph: ClearanceGraph, start, goal) -> SolutionPath:
    """Least-cost path between the graph attachments of start and goal.

    Deterministic uniform-cost search; ties break toward the lower node index.
    """
    if len(graph.nodes) == 0 or not graph.edges:
        raise VoronoiError("empty graph")
    nodes = [np.asarray(n, dtype=float) for n in graph.nodes]
    edges = list(graph.edges)
    nodes, edges, s_id = _attach_point(nodes, edges, np.asarray(start, dtype=float))
    nodes, edges, g_id = _attach_point(nodes, edges, np.asarray(goal, dtype=float))

    adj: dict[int, list] = {}
    for e in edges:
        adj.setdefault(e.a, []).append((e.b, e.weight, e.normal_angle))
        adj.setdefault(e.b, []).append((e.a, e.weight, e.normal_angle))
    for v in adj:
        adj[v].sort()

    dist = {s_id: 0.0}
    prev: dict[int, tuple] = {}
    heap = [(0.0, s_id)]
    done = set()
    while heap:
        d, v = heapq.heappop(heap)
        if v in done:
            continue
        done.add(v)
        if v == g_id:
            break
        for (u, w, ang) in adj.get(v, []):
            nd = d + w
            if nd < dist.get(u, math.inf) - 1e-15:
                dist[u] = nd
                prev[u] = (v, ang)
                heapq.heappush(heap, (nd, u))
    if g_id not in done:
        return SolutionPath(found=False, nodes=np.zeros((0, 2)), edge_normals=np.zeros(0))

    order = [g_id]
    normals = []
    v = g_id
    while v != s_id:
        v, ang = prev[v]
        order.append(v)
        normals.append(ang)
    order.reverse()
    normals.reverse()
    return SolutionPath(found=True,
                        nodes=np.array([nodes[k] for k in order]),
                        edge_normals=np.array(normals),
                        cost=dist[g_id])


def dump_diagram(cells: list[VoronoiCell], graph: ClearanceGraph, spec: str) -> str:
    """Structured-text dump of cells and graph edges for plotting, its floats
    in the format spec spec."""
    lines = ["# voronoi diagram dump v1"]
    for cell in cells:
        coords = " ".join(f"{x:{spec}},{y:{spec}}" for x, y in cell.vertices)
        lines.append(f"cell {cell.index} {coords}")
    for e in graph.edges:
        a, b = graph.nodes[e.a], graph.nodes[e.b]
        lines.append(
            f"edge {e.a} {e.b} {a[0]:{spec}},{a[1]:{spec}} {b[0]:{spec}},{b[1]:{spec}} "
            f"normal {e.normal_angle:{spec}} source {'/'.join(str(s) for s in e.source)}")
    return "\n".join(lines) + "\n"
