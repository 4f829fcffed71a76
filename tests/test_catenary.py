"""Planar alpha-catenaries: integration, shooting, cylinders."""

import math
import re
import traceback

import numpy as np
import pytest

from singular_geom import catenary as cat
from singular_geom import curves
from singular_geom.algebra import Metric, Vec3, inner
from singular_geom.curves import rk4_step
from singular_geom.errors import HalfspaceViolation, NoSolution, NotOrthogonal
from singular_geom.surface import singular_residual

E = Metric.EUCLIDEAN
EZ = Vec3(0, 0, 1)
EY = Vec3(0, 1, 0)


def start(y0=1.0, theta0=0.0):
    return cat.CatenaryState(0.0, y0, theta0, 0.0)


def state(y0=1.0, theta0=0.0):
    return (0.0, y0, theta0)


# ---------------------------------------------------------------------------
# right-hand side
# ---------------------------------------------------------------------------

def test_rhs_straight_line_for_alpha_zero():
    du, dy, dth = cat.catenary_rhs(0.0, state(theta0=0.3), 0.0)
    assert dth == 0.0
    assert abs(du - math.cos(0.3)) < 1e-15


def test_rhs_unit_curvature_at_unit_height():
    assert cat.catenary_rhs(0.0, state(), 1.0)[2] == 1.0


def test_rhs_vertical_tangent_kills_source():
    _, _, dth = cat.catenary_rhs(0.0, (0.0, 2.0, math.pi / 2), 1.0)
    assert abs(dth) < 1e-16


def test_rhs_halfspace_floor():
    with pytest.raises(HalfspaceViolation):
        cat.catenary_rhs(0.0, (0.0, 1e-13, 0.0), 1.0)


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

def test_integrate_matches_closed_form():
    path = cat.integrate(start(), 1.0, 2.0, 1e-3)
    end = path.endpoint
    u_ref, y_ref = cat.classical_catenary(2.0)
    assert math.hypot(end.u - u_ref, end.y - y_ref) <= 1e-8
    assert len(path.states) == 2001
    assert not path.exited_halfspace


def test_integrate_alpha_zero_straight():
    path = cat.integrate(start(theta0=math.pi / 4), 0.0, 1.0, 1e-3)
    end = path.endpoint
    assert abs(end.u - math.cos(math.pi / 4)) < 1e-12
    assert abs(end.y - 1.0 - math.sin(math.pi / 4)) < 1e-12


def test_integrate_negative_alpha_circle():
    # the alpha = -1 curve from (0, 1, 0) is the unit circle about the origin
    path = cat.integrate(start(), -1.0, 1.2, 1e-3)
    for st in path.states:
        assert st.y > 0.0
        assert abs(st.u ** 2 + st.y ** 2 - 1.0) < 1e-10
    # theta' < 0: bends toward the axis
    assert path.states[5].theta < 0.0
    # step-halving oracle: the re-integration at half step agrees
    half = cat.integrate(start(), -1.0, 1.2, 5e-4)
    assert math.hypot(path.endpoint.u - half.endpoint.u,
                      path.endpoint.y - half.endpoint.y) <= 1e-8


def test_integrate_fourth_order_step_halving():
    coarse = cat.integrate(start(), 1.0, 2.0, 4e-2)
    fine = cat.integrate(start(), 1.0, 2.0, 2e-2)
    u_ref, y_ref = cat.classical_catenary(2.0)
    err_c = math.hypot(coarse.endpoint.u - u_ref, coarse.endpoint.y - y_ref)
    err_f = math.hypot(fine.endpoint.u - u_ref, fine.endpoint.y - y_ref)
    assert err_c / err_f >= 12.0


def test_integrate_flags_halfspace_exit():
    path = cat.integrate(start(), -2.0, 2.0, 1e-3)
    assert path.exited_halfspace
    assert path.endpoint.s < 2.0
    assert all(st.y > 0 for st in path.states)


def test_halfspace_violation_inside_a_step_keeps_its_type_message_and_traceback():
    # a vertical dive from y = 0.01: k1 is taken at the node, and the second
    # stage, half a step of 0.02 down, lands on the floor
    alpha, h = 1.5, 0.02
    s, node = 0.0, (0.0, 0.01, -0.5 * math.pi)
    f = cat._rhs(alpha)
    with pytest.raises(HalfspaceViolation) as caught:
        rk4_step(f, s, node, h, f(s, node))
    y_stage = node[1] + 0.5 * h * f(s, node)[1]
    assert str(caught.value) == f"y = {y_stage} at s = {s + 0.5 * h} reached the halfspace floor"
    text = "".join(traceback.format_exception(caught.value))
    assert "rk4_step, state length 3>" in text
    assert "(b0, b1, b2) = f(s + half, (y0 + half * a0, y1 + half * a1, y2 + half * a2))" in text
    assert "<string>" not in text
    # integrate ends such a path at its last node instead of raising
    path = cat.integrate(start(node[1], node[2]), alpha, 1.0, h)
    assert path.exited_halfspace
    assert len(path.states) == 1


def _reference_integrate(alpha, length, step):
    """The integrator before it used curves.rk4_step: its own stage-sum order."""
    n = max(1, int(round(length / step)))
    h = length / n
    rows = [(0.0, 0.0, 1.0, 0.0)]
    s, u, y, th = rows[0]

    def f(u, y, th):
        return cat.catenary_rhs(s, (u, y, th), alpha)

    for _ in range(n):
        try:
            k1 = f(u, y, th)
            k2 = f(u + 0.5 * h * k1[0], y + 0.5 * h * k1[1], th + 0.5 * h * k1[2])
            k3 = f(u + 0.5 * h * k2[0], y + 0.5 * h * k2[1], th + 0.5 * h * k2[2])
            k4 = f(u + h * k3[0], y + h * k3[1], th + h * k3[2])
        except HalfspaceViolation:
            return rows, True
        w = h / 6.0
        u, y, th = (
            u + w * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]),
            y + w * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]),
            th + w * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2]),
        )
        if y <= cat.Y_FLOOR:
            return rows, True
        s = s + h
        rows.append((s, u, y, th))
    return rows, False


def test_halfspace_exit_row_and_s_column_match_reference():
    # the shared rk4_step sums stages in another order than the old private
    # stepper; only the last bits of (u, y, theta) may move, never the exit
    # row or the accumulated s column
    path = cat.integrate(start(), -2.0, 2.0, 1e-3)
    rows, exited = _reference_integrate(-2.0, 2.0, 1e-3)
    assert path.exited_halfspace and exited
    assert len(path.states) == len(rows)
    s = np.array(path.s)
    u, y, th = np.array(path.nodes).T
    ref = np.array(rows)
    assert s.tolist() == ref[:, 0].tolist()
    assert np.abs(np.column_stack([u, y, th]) - ref[:, 1:]).max() <= 1e-13


def _reference_states(alpha, length, step):
    """integrate as one rk4_step of the catenary right-hand side per step, keeping
    CatenaryState objects."""
    n = max(1, int(round(length / step)))
    h = length / n

    def rhs(s, state):
        _, y, theta = state
        if y <= cat.Y_FLOOR:
            raise HalfspaceViolation(f"y = {y} at s = {s} reached the halfspace floor")
        c = math.cos(theta)
        return (c, math.sin(theta), alpha * c / y)

    states = [start()]
    s, state = 0.0, (0.0, 1.0, 0.0)
    for _ in range(n):
        try:
            state = rk4_step(rhs, s, state, h)
        except HalfspaceViolation:
            return states, True
        if state[1] <= cat.Y_FLOOR:
            return states, True
        s += h
        states.append(cat.CatenaryState(*state, s))
    return states, False


@pytest.mark.parametrize("alpha, length", [(1.5, 2.0), (-0.7, 1.2), (3.0, 2.0), (-2.0, 2.0)])
def test_integrate_keeps_the_states_of_rk4_steps_bitwise(alpha, length):
    path = cat.integrate(start(), alpha, length, 1e-3)
    states, exited = _reference_states(alpha, length, 1e-3)
    assert path.exited_halfspace == exited
    assert repr(path.endpoint) == repr(states[-1])
    # booleans, so that a failure does not diff thousands of rows
    same_states = repr(path.states) == repr(states)
    same_csv = path.to_csv() == cat.CatenaryPath.from_states(states, alpha, exited).to_csv()
    assert same_states and same_csv


def _rk4_step_path(begin, alpha, length, step):
    """integrate as a loop of rk4_step, keeping the first stage of each step as its
    node's slope: s, nodes, slopes, the exit flag, and where the path ends (the
    stage "b", "c" or "d" of a step that reaches the floor, "node" for a step
    whose new node is at the floor, None after all n steps)."""
    n = max(1, int(round(length / step)))
    h = length / n
    calls = []

    def rhs(s, state):
        calls.append(1)
        _, y, theta = state
        if y <= cat.Y_FLOOR:
            raise HalfspaceViolation(f"y = {y} at s = {s} reached the halfspace floor")
        c = math.cos(theta)
        return (c, math.sin(theta), alpha * c / y)

    s, state = begin.s, (begin.u, begin.y, begin.theta)
    ss, nodes, slopes = [s], [state], []
    for _ in range(n):
        k1 = rhs(s, state)
        slopes.append(k1)
        calls.clear()
        try:
            state = rk4_step(rhs, s, state, h, k1)
        except HalfspaceViolation:
            return ss, nodes, slopes, True, "abcd"[len(calls)]
        if state[1] <= cat.Y_FLOOR:
            return ss, nodes, slopes, True, "node"
        s += h
        ss.append(s)
        nodes.append(state)
    slopes.append(rhs(s, state))
    return ss, nodes, slopes, False, None


# (start, alpha, length, step) and where the path ends; at each stage exit the
# step's node, taken past the floor, would lie above it, so only the stage's
# guard ends the path there
_MARCH_CASES = {
    "exit at stage b": (start(0.2, -0.31), -0.5, 1.0, 1e-3, "b"),
    "exit at stage c": (start(0.2, -0.59), -0.5, 2.0, 2e-3, "c"),
    "exit at stage d": (start(0.2, 0.0), -0.5, 3.0, 1e-3, "d"),
    "exit after a full step": (start(0.1, 0.41), -0.5, 1.0, 5e-3, "node"),
    "all n steps": (start(1.0, 0.2), 1.5, 2.0, 1e-3, None),
    "n = 1": (start(1.0, 0.3), 1.0, 0.1, 1.0, None),
    "start at s != 0": (cat.CatenaryState(0.25, 1.0, 0.2, 0.37), 2.0, 1.3, 3e-3, None),
    "theta0 = 1e300": (start(1.0, 1e300), 1.0, 1.0, 1e-2, None),
}


@pytest.mark.parametrize("case", _MARCH_CASES)
def test_the_march_takes_the_nodes_and_slopes_of_rk4_steps_bitwise(case, monkeypatch):
    begin, alpha, length, step, end = _MARCH_CASES[case]
    s, nodes, slopes, exited, ref_end = _rk4_step_path(begin, alpha, length, step)
    assert ref_end == end

    def no_rk4_step(*args):
        raise AssertionError("integrate took an rk4_step")

    monkeypatch.setattr(curves, "rk4_step", no_rk4_step)
    monkeypatch.setattr(cat, "rk4_step", no_rk4_step)
    path = cat.integrate(begin, alpha, length, step)
    assert repr(path.s) == repr(s)
    assert repr(path.nodes) == repr(nodes)
    assert repr(path.slopes) == repr(slopes)
    assert path.exited_halfspace is exited
    if case == "n = 1":
        assert len(path.nodes) == 2
    again = cat.CatenaryPath.from_states(path.states, alpha, path.exited_halfspace)
    assert repr(again.slopes) == repr(path.slopes)


@pytest.mark.parametrize("change, name", [
    ({"length": -1.0}, "length"), ({"length": 0.0}, "length"),
    ({"length": math.nan}, "length"), ({"length": math.inf}, "length"),
    ({"step": -1e-3}, "step"), ({"step": 0.0}, "step"),
    ({"step": math.nan}, "step"), ({"step": math.inf}, "step"),
    ({"alpha": math.nan}, "alpha"), ({"alpha": -math.inf}, "alpha"),
    ({"begin": cat.CatenaryState(math.nan, 1.0, 0.0, 0.0)}, "start.u"),
    ({"begin": start(math.nan)}, "start.y"), ({"begin": start(math.inf)}, "start.y"),
    ({"begin": start(theta0=math.nan)}, "start.theta"),
    ({"begin": start(theta0=-math.inf)}, "start.theta"),
    ({"begin": cat.CatenaryState(0.0, 1.0, 0.0, math.inf)}, "start.s"),
])
def test_integrate_rejects_arguments_it_cannot_honour(change, name):
    args = {"begin": start(), "alpha": 1.0, "length": 1.0, "step": 1e-3, **change}
    kind = "finite and positive" if name in ("length", "step") else "finite"
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be {kind}, got "):
        cat.integrate(args["begin"], args["alpha"], args["length"], args["step"])


@pytest.mark.parametrize("k", [-3, 2, 5])
@pytest.mark.parametrize("theta0", [-0.4, 0.0, 0.3])
@pytest.mark.parametrize("alpha", [-2.0, -0.7, 1.0, 2.5])
def test_a_dilated_start_gives_the_dilated_path_bitwise(alpha, theta0, k):
    # theta' = alpha cos(theta) / y: a start at 2^k y0, with length and step times 2^k,
    # scales s, u and y by 2^k and theta' by 2^-k, and keeps theta, u' and y'.  Powers
    # of 2 scale floats exactly, so every RK4 stage scales so too, up to a halfspace exit
    scale = 2.0 ** k
    dilated = cat.integrate(start(y0=scale, theta0=theta0), alpha, 2.0 * scale, 1e-3 * scale)
    path = cat.integrate(start(theta0=theta0), alpha, 2.0, 1e-3)
    assert dilated.exited_halfspace == path.exited_halfspace
    assert dilated.s == [scale * s for s in path.s]
    assert dilated.nodes == [(scale * u, scale * y, th) for u, y, th in path.nodes]
    assert dilated.slopes == [(du, dy, dth / scale) for du, dy, dth in path.slopes]


def test_conserved_quantity_along_path():
    # y^alpha cos(theta) is a first integral of the planar equation
    for alpha in (-2.0, -1.0, 1.0, 2.0, 3.0):
        path = cat.integrate(start(), alpha, 1.0 if alpha < 0 else 2.0, 1e-3)
        for st in path.states[:: 100]:
            assert abs(st.y ** alpha * math.cos(st.theta) - 1.0) < 1e-9


def test_curvature_identity_along_polyline():
    # theta' y = alpha cos(theta) with theta' from a 5-point stencil
    path = cat.integrate(start(), 1.5, 2.0, 1e-3)
    s = np.array(path.s)
    u, y, th = np.array(path.nodes).T
    h = s[1] - s[0]
    dth = (th[:-4] - 8 * th[1:-3] + 8 * th[3:-1] - th[4:]) / (12 * h)
    resid = dth * y[2:-2] - 1.5 * np.cos(th[2:-2])
    assert np.abs(resid).max() <= 1e-9


# ---------------------------------------------------------------------------
# boundary value problem
# ---------------------------------------------------------------------------

def test_bvp_recovers_classical_catenary():
    u1, y1 = cat.classical_catenary(2.0)
    theta0 = cat.solve_bvp((0.0, 1.0), (u1, y1), 1.0, tol=1e-8)
    assert abs(theta0) <= 1e-6


def test_bvp_straight_line():
    theta0 = cat.solve_bvp((0.0, 1.0), (1.0, 2.0), 0.0, tol=1e-10)
    assert abs(theta0 - math.atan(1.0)) <= 1e-8


def test_bvp_unreachable_target():
    # oracle scan: verify the target lies below every shot height first
    target_u = 3.0
    lows = []
    for th in np.linspace(-math.pi / 2 + 1e-6, math.pi / 2 - 1e-6, 64):
        y = cat._shoot_height(th, 0.0, 1.0, target_u, 1.0)
        lows.append(y)
    reachable_min = min(v for v in lows if math.isfinite(v) and v > 0)
    assert reachable_min > 0.05
    with pytest.raises(NoSolution):
        cat.solve_bvp((0.0, 1.0), (target_u, 0.05), 1.0)


def test_bvp_rejects_bad_endpoints():
    with pytest.raises(ValueError):
        cat.solve_bvp((0.0, -1.0), (1.0, 1.0), 1.0)
    with pytest.raises(ValueError):
        cat.solve_bvp((1.0, 1.0), (0.0, 1.0), 1.0)


@pytest.mark.parametrize("p0, p1, alpha, name", [
    ((0.0, 1.0), (math.inf, 1.0), 1.0, "p1.u"),
    ((0.0, 1.0), (1.0, 2.0), math.nan, "alpha"),
    ((0.0, math.nan), (1.0, 2.0), 1.0, "p0.y"),
    ((0.0, 1.0), (1.0, math.inf), 1.0, "p1.y"),
    ((-math.inf, 1.0), (1.0, 2.0), 1.0, "p0.u"),
    ((0.0, 1.0), (1.0, 2.0), -math.inf, "alpha"),
])
def test_bvp_rejects_a_value_that_is_not_finite_by_name(p0, p1, alpha, name, monkeypatch):
    # before any shot: an infinite u1 once overflowed the step count, and a NaN
    # alpha or y0 or an infinite y1 scanned every shot to "no sign change"
    monkeypatch.setattr(cat, "rk4_step", _no_step)
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be finite, got "):
        cat.solve_bvp(p0, p1, alpha)


def _no_step(*args):
    raise AssertionError("stepped")


@pytest.mark.parametrize("p0, p1", [
    ((0.0, 1.0), (1e300, 1.0)),
    ((0.0, 1.0), (0.002 * (cat.MAX_STEPS + 1), 1.0)),
    ((-1e308, 1.0), (1e308, 1.0)),  # p1.u - p0.u overflows to inf
])
def test_bvp_rejects_a_shot_above_max_steps_before_stepping(p0, p1, monkeypatch):
    monkeypatch.setattr(cat, "rk4_step", _no_step)
    with pytest.raises(ValueError, match=r"exceed MAX_STEPS = 1000000$"):
        cat.solve_bvp(p0, p1, 1.0)


def test_a_shot_just_under_max_steps_steps(monkeypatch):
    # the cap rejects no shot that it does not have to
    monkeypatch.setattr(cat, "rk4_step", _no_step)
    with pytest.raises(AssertionError, match="stepped"):
        cat._shoot_height(0.0, 0.0, 1.0, 0.002 * (cat.MAX_STEPS - 1), 1.0)


def test_a_whole_solve_takes_at_most_max_steps_steps(monkeypatch):
    # a gap of 0.5 takes shots of 256 steps, and this solve takes 83 of them: the
    # 64-shot scan and 19 bisection shots.  MAX_STEPS is lowered to a budget of
    # 83 shots, 82 shots and 63 shots
    solved = cat.solve_bvp((0.0, 1.0), (0.5, 1.4), 1.0)
    steps = []
    monkeypatch.setattr(cat, "rk4_step", lambda *args: steps.append(1) or rk4_step(*args))
    monkeypatch.setattr(cat, "MAX_STEPS", 83 * 256)
    assert cat.solve_bvp((0.0, 1.0), (0.5, 1.4), 1.0) == solved
    assert 64 * 256 < len(steps) <= cat.MAX_STEPS
    steps.clear()
    monkeypatch.setattr(cat, "MAX_STEPS", 83 * 256 - 1)
    with pytest.raises(NoSolution, match=r"^bisection stopped: .* MAX_STEPS = 21247$"):
        cat.solve_bvp((0.0, 1.0), (0.5, 1.4), 1.0)
    assert 64 * 256 < len(steps) <= cat.MAX_STEPS
    # a scan that could pass the cap is refused before its first step
    monkeypatch.setattr(cat, "rk4_step", _no_step)
    monkeypatch.setattr(cat, "MAX_STEPS", 64 * 256 - 1)
    with pytest.raises(ValueError, match=r"^64 scan shots of 256 steps exceed MAX_STEPS = 16383$"):
        cat.solve_bvp((0.0, 1.0), (0.5, 1.4), 1.0)


# ---------------------------------------------------------------------------
# cylinders
# ---------------------------------------------------------------------------

def test_cylinder_residual_alpha_one():
    path = cat.integrate(start(), 1.0, 2.0, 5e-4)
    surf = cat.catenary_cylinder(path, EZ, EY)
    s0, s1, t0, t1 = surf.domain
    worst = max(
        abs(singular_residual(E, surf, s, t, EZ, 1.0))
        for s in np.linspace(s0, s1, 50)
        for t in np.linspace(t0, t1, 50)
    )
    assert worst <= 1e-6


@pytest.mark.parametrize("alpha,length", [(-2.0, 1.0), (-1.0, 1.2), (1.0, 2.0),
                                          (2.0, 2.0), (3.0, 2.0)])
def test_cylinder_residual_per_alpha(alpha, length):
    path = cat.integrate(start(), alpha, length, 2.5e-4)
    assert not path.exited_halfspace
    surf = cat.catenary_cylinder(path, EZ, EY)
    s0, s1, t0, t1 = surf.domain
    worst = max(
        abs(singular_residual(E, surf, s, t, EZ, alpha))
        for s in np.linspace(s0, s1, 40)
        for t in np.linspace(t0, t1, 12)
    )
    assert worst <= 1e-5


def test_cylinder_over_straight_line_is_plane():
    # vertical chart line -> plane spanned by (v, ruling), parallel to v
    # theta = pi/2 solves the planar equation for every alpha
    line = cat.CatenaryPath.from_states([cat.CatenaryState(0.3, 1.0 + s, math.pi / 2, s)
                                         for s in np.linspace(0.0, 1.0, 200)], 2.0)
    surf = cat.catenary_cylinder(line, EZ, EY)
    for alpha in (-1.0, 0.5, 2.0):
        assert abs(singular_residual(E, surf, 0.5, 0.2, EZ, alpha)) < 1e-9


def test_cylinder_rulings_orthogonal_to_direction():
    path = cat.integrate(start(), 2.0, 1.5, 1e-3)
    surf = cat.catenary_cylinder(path, EZ, EY)
    for s in np.linspace(*surf.domain[:2], 7):
        j = surf.jet(s, 0.3)
        assert inner(E, j.Xt, EZ) == 0.0


def test_cylinder_requires_orthogonal_ruling():
    path = cat.integrate(start(), 1.0, 1.0, 1e-3)
    tilted = Vec3(0.0, math.cos(0.1), math.sin(0.1))
    with pytest.raises(NotOrthogonal):
        cat.catenary_cylinder(path, EZ, tilted)


def test_cylinder_needs_five_states():
    path = cat.integrate(start(), 1.0, 0.04, 1e-2)
    assert len(path.states) == 5
    cat.catenary_cylinder(path, EZ, EY)
    with pytest.raises(ValueError):
        cat.catenary_cylinder(cat.CatenaryPath.from_states(path.states[:4], 1.0), EZ, EY)


def test_a_path_from_states_takes_f_at_its_states():
    states = [cat.CatenaryState(0.1 * k, 1.0 + 0.1 * k, 0.3, 0.1 * k) for k in range(5)]
    path = cat.CatenaryPath.from_states(states, 2.0)
    assert path.slopes == [cat.catenary_rhs(st.s, (st.u, st.y, st.theta), 2.0) for st in states]
    assert repr(path.states) == repr(states)
    # f raises at a state on the halfspace floor, so such a path is never made
    with pytest.raises(HalfspaceViolation):
        cat.CatenaryPath.from_states([*states, cat.CatenaryState(0.5, cat.Y_FLOOR, 0.3, 0.5)], 2.0)


def test_path_csv_round_trip():
    path = cat.integrate(start(), 1.0, 0.1, 1e-2)
    text = path.to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "s,u,y,theta"
    assert len(lines) == len(path.states) + 1
    last = [float(x) for x in lines[-1].split(",")]
    assert last[1] == path.endpoint.u and last[2] == path.endpoint.y


def test_flagged_path_csv_has_exit_column():
    path = cat.integrate(start(), -2.0, 2.0, 1e-3)
    lines = path.to_csv().strip().splitlines()
    assert lines[0] == "s,u,y,theta,exited"
    assert lines[-1].endswith(",1")
    assert lines[1].endswith(",0")
