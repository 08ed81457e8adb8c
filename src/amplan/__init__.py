"""Whole-body motion planning and safety-critical control for a planar aerial manipulator.

Modules:
    geometry   -- superquadric shapes, boundary proxies, closest-pair solving
    voronoi    -- maximum-clearance diagram, cell graph, path search
    planner    -- equilibrium-manifold local planner and target scheduling
    dynamics   -- 6-DOF rigid-body model, thrust allocation, simulator step
    control    -- DOB inner loop, thrust-limit and HOCBF rows, QP outer loop
    qp         -- small dense dual active-set (Goldfarb-Idnani) QP solver
    harness    -- scenario ingestion, pipeline orchestration, metrics, emission
"""

__version__ = "0.1.0"
