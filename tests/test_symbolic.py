"""A symbolic certificate of the coefficient polynomials of ruled.coefficients.

The production formulas run here on surface._V of sympy symbols.  Each
director class gives its frame at one s in coordinates where w and w' are
fixed vectors, which a Lorentz or Euclidean motion of determinant 1 reaches
and which inner and triple do not see; g, v, alpha and the frame functions
stay symbols.  The jets of X(s, t) = g(s) + t w(s) then give the
cleared-denominator residual D (surface._cleared), and ORACLE_SIGN times
sum A_n t^n (ruled._coefficient_values) minus D must expand to 0, and must
not with the opposite sign.  The tests skip where sympy is not installed.
"""
import functools
from types import SimpleNamespace

import pytest

sp = pytest.importorskip("sympy")

from singular_geom.algebra import Metric, cross, inner, triple  # noqa: E402
from singular_geom.ruled import (  # noqa: E402
    ORACLE_SIGN,
    DirectorClass,
    _coefficient_values,
    _frame_functions,
)
from singular_geom.surface import Jet2, _V, _cleared, _first_form  # noqa: E402

E, L = Metric.EUCLIDEAN, Metric.LORENTZIAN
t, alpha, P, Q, Pp = sp.symbols("t alpha P Q Pp")
v = _V(*sp.symbols("v1:4"))
gam = _V(*sp.symbols("g1:4"))


def _comb(*terms) -> _V:
    """sum c u over the (c, u) of terms."""
    return _V(*(sum(c * u[k] for c, u in terms) for k in range(3)))


def _frame(klass: DirectorClass, delta: int = 1):
    """(m, w, w', w'', g', g'', P', Q') of a class at one s, with symbols P, Q, Pp.

    w'' and g' are the class's frame ODE with e3 = w x w'; g'' is the
    derivative of g', in which e3' = w x w''.
    """
    w = _V(1, 0, 0)
    if klass is DirectorClass.LORENTZ_LIGHTLIKE:
        # g' = (0, a, b) with a^2 - b^2 = 1, rationally in u; g'' the solutions
        # of <g'', g'> = 0 and <g'', w> = -Q, with Q = <g', w'> = 1/u
        u, lam = sp.symbols("u lam", nonzero=True)
        a, b = (u + 1 / u) / 2, (u - 1 / u) / 2
        wp, wpp, gp = _V(0, 1, 1), _V(0, 0, 0), _V(0, a, b)
        gpp = _V(-inner(L, gp, wp), lam * b, lam * a)
        Qp = inner(L, gpp, wp) + inner(L, gp, wpp)
        return L, w, wp, wpp, gp, gpp, None, Qp
    if klass is DirectorClass.EUCLID_STANDARD:
        m, wp, sigma, c = E, _V(0, 1, 0), -1, 1
    else:
        m, wp = L, (_V(0, 1, 0) if delta == 1 else _V(0, 0, 1))
        sigma, c = -delta, -delta
    e3 = cross(m, w, wp)
    wpp = _comb((sigma, w), (c * Q, e3))
    gp = _comb((c * P, e3))
    gpp = _comb((c * Pp, e3), (c * P, cross(m, w, wpp)))
    return m, w, wp, wpp, gp, gpp, Pp, None


def _cleared_residual(m: Metric, w, wp, wpp, gp, gpp):
    """D of the ruled jets at t, through the production first form and bracket."""
    X = _comb((1, gam), (t, w))
    j = Jet2(X, _comb((1, gp), (t, wp)), w, _comb((1, gpp), (t, wpp)), wp, _V(0, 0, 0))
    E_, F, G, W2 = _first_form(m, j.Xs, j.Xt)
    return _cleared(m, alpha, inner(m, X, v), E_, F, G, W2, j, v)


def _coefficients(klass: DirectorClass, delta: int, frame):
    """The A_n of the frame, with P and Q as the code takes them (_frame_functions)."""
    m, w, wp, wpp, gp, _, Pp_, Qp = frame
    rs = SimpleNamespace(metric=m, director_class=klass, delta=delta)
    P_, Q_ = _frame_functions(klass, w, wp, wpp, gp)
    dref = Qp if klass is DirectorClass.LORENTZ_LIGHTLIKE else Pp_
    return _coefficient_values(rs, v, alpha, w, wp, P_, Q_, dref, gam, gp)


CASES = [
    pytest.param(DirectorClass.EUCLID_STANDARD, 1, id="euclid"),
    pytest.param(DirectorClass.LORENTZ_NONDEGENERATE, 1, id="lorentz+1"),
    pytest.param(DirectorClass.LORENTZ_NONDEGENERATE, -1, id="lorentz-1"),
    pytest.param(DirectorClass.LORENTZ_LIGHTLIKE, 0, id="lightlike"),
]


@pytest.mark.parametrize("klass, delta", CASES)
def test_coefficients_are_the_cleared_residual_with_the_oracle_sign(klass, delta):
    frame = _frame(klass, delta)
    m, w, wp, wpp, gp, gpp, _, _ = frame
    if klass is not DirectorClass.LORENTZ_LIGHTLIKE:
        # the code's P and Q are the frame coordinates the ODE was written in
        assert [sp.expand(x) for x in _frame_functions(klass, w, wp, wpp, gp)] == [P, Q]
    poly = sum(a * t ** n for n, a in enumerate(_coefficients(klass, delta, frame)))
    D = _cleared_residual(m, w, wp, wpp, gp, gpp)
    sign = ORACLE_SIGN[klass]
    assert sp.expand(sign * poly - D) == 0
    assert sp.expand(-sign * poly - D) != 0


@functools.cache
def _coefficient_matrix(klass: DirectorClass, delta: int) -> sp.ImmutableMatrix:
    """M of A = M x, x = (<w,v>, <w',v>, (w,w',v), <g,v>), solved for from A - M x = 0
    identically in v and g; each row's solution must be unique."""
    frame = _frame(klass, delta)
    m, w, wp = frame[:3]
    x = [inner(m, w, v), inner(m, wp, v), triple(w, wp, v), inner(m, gam, v)]
    M = sp.Matrix(4, 4, sp.symbols("M0:16"))
    rows = []
    for n, a in enumerate(_coefficients(klass, delta, frame)):
        rest = sp.expand(a - sum(M[n, k] * x[k] for k in range(4)))
        sol = sp.solve(sp.Poly(rest, *v, *gam).coeffs(), list(M.row(n)), dict=True)
        assert len(sol) == 1
        rows.append([sol[0][M[n, k]] for k in range(4)])
    return sp.ImmutableMatrix(rows)


def _sign(klass: DirectorClass, delta: int) -> int:
    """1 in the Euclidean class, -delta in the Lorentz nondegenerate classes."""
    return 1 if klass is DirectorClass.EUCLID_STANDARD else -delta


@pytest.mark.parametrize("klass, delta", CASES[:3])
def test_coefficient_system_determinant(klass, delta):
    """The A_n are linear in x = (<w,v>, <w',v>, (w,w',v), <g,v>), with a fixed determinant.

    det M is alpha^2 P^3 P'^2 (Euclidean) or -delta alpha^2 P^3 P'^2
    (Lorentz), so A = 0 at nonzero alpha P P' forces x = 0.
    """
    det = _coefficient_matrix(klass, delta).det(method="berkowitz")  # no division by Float 0.0
    assert sp.expand(det - _sign(klass, delta) * alpha ** 2 * P ** 3 * Pp ** 2) == 0


@pytest.mark.parametrize("locus", ["P'=0", "P=P'=0", "P=0"])
@pytest.mark.parametrize("klass, delta", CASES[:3])
def test_coefficient_system_rank_on_the_locus_where_the_determinant_vanishes(klass, delta,
                                                                              locus):
    """Where alpha P P' = 0 at nonzero alpha, M loses rank, and these vectors span its kernel.

    With sigma = 1 (Euclidean) or -delta (Lorentz), the last row of M is
    (sigma Q, 0, -alpha, 0), so a kernel vector has sigma Q x1 = alpha x3; with
    tau = 1 (Euclidean) or -1 (Lorentz), the first row is
    (0, tau alpha P^3, 0, P^2 Q):
    - P' = 0: rank 2, kernel (sigma alpha/Q, 0, 1, 0) and (0, -tau Q/(P alpha), 0, 1);
    - P = P' = 0, a cone (P = 0 at every s): rank 2, kernel (sigma alpha/Q, 0, 1, 0)
      and (0, 1, 0, 0), since every entry of M's <w',v> column carries a factor P;
    - P = 0 at an s where P' != 0: rank 3, kernel (0, 1, 0, 0).
    A vector k is in the kernel when M k expands to 0, and rank + number of
    independent k = 4 makes them a basis of it.
    """
    sigma = _sign(klass, delta)
    tau = 1 if klass is DirectorClass.EUCLID_STANDARD else -1
    on = {"P'=0": {Pp: 0}, "P=P'=0": {P: 0, Pp: 0}, "P=0": {P: 0}}[locus]
    M = _coefficient_matrix(klass, delta).subs(on).applyfunc(sp.nsimplify)
    first = [sigma * alpha / Q, 0, 1, 0]
    kernel = {"P'=0": [first, [0, -tau * Q / (P * alpha), 0, 1]],
              "P=P'=0": [first, [0, 1, 0, 0]],
              "P=0": [[0, 1, 0, 0]]}[locus]
    assert M.rank(simplify=True) == 4 - len(kernel)
    assert sp.Matrix(kernel).rank() == len(kernel)
    for k in kernel:
        assert (M * sp.Matrix(k)).applyfunc(sp.simplify) == sp.zeros(4, 1)


@pytest.mark.parametrize("m", [E, L])
def test_cleared_residual_is_invariant_under_a_parameter_shear(m):
    """D at a generic jet and at its jet under (s, t) -> (s, t + c s) agree.

    A shear has determinant 1, so W2, (Xs,Xt,v) and the bracket are
    invariant.  Normalized frames have F = 0; this pins the bracket's
    2F(Xs,Xt,Xst) term, which they do not see.
    """
    j = Jet2(*(_V(*sp.symbols(f"{n}1:4")) for n in ("x", "a", "b", "p", "q", "r")))
    c = sp.Symbol("c")
    sheared = Jet2(j.X, _comb((1, j.Xs), (c, j.Xt)), j.Xt,
                   _comb((1, j.Xss), (2 * c, j.Xst), (c * c, j.Xtt)),
                   _comb((1, j.Xst), (c, j.Xtt)), j.Xtt)

    def cleared(jet):
        E_, F, G, W2 = _first_form(m, jet.Xs, jet.Xt)
        return _cleared(m, alpha, inner(m, jet.X, v), E_, F, G, W2, jet, v)

    assert sp.expand(cleared(sheared) - cleared(j)) == 0
