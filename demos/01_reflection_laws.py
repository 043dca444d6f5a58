"""Reflection laws in convex bodies, step by step.

The reflection of a line off the boundary of K is driven by a second
body T: transport the exterior normal of T along a chord parallel to
the normal of K at the bounce point.  This script walks through the
special cases that anchor the general law: the unit ball gives back the
familiar Euclidean billiard, and an ellipse T is the Euclidean billiard
in disguise (conjugated by a diagonal rescaling).
"""

import numpy as np

import billiardlab as bl

rng = np.random.default_rng(7)

print("=== 1. The chord involution of a body of directions ===")
ellipse = bl.Ellipsoid(np.diag([0.25, 1.0]))  # semiaxes 2 and 1
cls = bl.ParallelClass([0.0, 1.0])
u = np.array([0.6, 0.8])
v = bl.parallel_chord_involution(ellipse, cls, u)
print("direction", u, "maps to", np.round(v, 6))
print("applying twice returns the start:",
      np.linalg.norm(bl.parallel_chord_involution(ellipse, cls, v) - u))

print()
print("=== 2. T = unit ball: the Euclidean billiard ===")
K = bl.Superellipse(4.0)
ball = bl.Ball(1.0)
line = bl.OrientedLine([0.1, -0.2], [0.8, 0.6])
out = bl.t_billiard_reflect(K, ball, line)
n = K.exterior_normal(out.point)
print("bounce point      ", np.round(out.point, 6))
print("reflected         ", np.round(out.direction, 6))
print("euclidean_reflect ", np.round(bl.euclidean_reflect(n, line.direction), 6))

print()
print("=== 3. T = ellipse: rescaling makes it Euclidean ===")
b = np.array([1.5, 0.75])
T = bl.Ellipsoid(np.diag(1.0 / b ** 2))  # semiaxes b
K2 = bl.Ellipsoid(np.array([[0.3, 0.05], [0.05, 1.1]]))
K2_rescaled = bl.LinearImageBody(K2, np.diag(b))
worst = 0.0
for _ in range(50):
    p = rng.normal(size=2) * 0.2
    d = rng.normal(size=2)
    ln = bl.OrientedLine(p, d)
    lhs = bl.rescale_conjugate(b, bl.t_billiard_reflect(K2, T, ln))
    ln2 = bl.rescale_conjugate(b, ln)
    q = K2_rescaled.last_intersection(ln2)
    rhs = bl.euclidean_reflect(K2_rescaled.exterior_normal(q), ln2.direction)
    worst = max(worst, np.linalg.norm(lhs.direction - rhs))
print("max conjugation defect over 50 random lines:", worst)

print()
print("=== 4. Minkowski-Finsler reflection: two equivalent laws ===")
I = bl.Ellipsoid(np.array([[0.8, 0.1], [0.1, 1.4]]))  # indicatrix
mirror = np.array([0.3, 1.0]) / np.linalg.norm([0.3, 1.0])
u = I._boundary_in_direction(np.array([0.9, -0.4]))
v_legendre = bl.finsler_reflect_legendre(I, mirror, u)
v_concurrent = bl.finsler_reflect_concurrency(I, mirror, u)
print("Legendre law   ", np.round(v_legendre, 9))
print("concurrency law", np.round(v_concurrent, 9))
print("gap:", np.linalg.norm(v_legendre - v_concurrent))

print()
print("=== 5. A lifted orbit in the product phase space ===")
lift = bl.lift_kt_orbit(K2, T, bl.OrientedLine([0.0, 0.0], [1.0, 0.2]), 4)
for seg in lift.segments[:4]:
    moving = "q moves" if seg.kind == "q" else "p moves"
    print(f"{moving}:  q {np.round(seg.q_start, 3)} -> {np.round(seg.q_end, 3)}"
          f"   p {np.round(seg.p_start, 3)} -> {np.round(seg.p_end, 3)}")
orbit = bl.iterate_t_billiard(K2, T, bl.OrientedLine([0.0, 0.0], [1.0, 0.2]), 4)
print("q-projection matches the billiard polygon:",
      np.max(np.abs(orbit.points - lift.q_polygon())))
