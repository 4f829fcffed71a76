"""Metamorphic relations of the surface layer: how a residual changes when the surface does.

The defining equation 2H = alpha <N,v>/<X,v> is invariant under dilations from
the origin, so its residual changes by a known factor.  A wrong degree in a
term, which a pointwise/grid twin shares with the code it mirrors, passes the
twin and fails the relation; a wrong constant coefficient keeps every degree,
and the parameter shear of tests/test_symbolic.py catches the bracket's.
"""
import numpy as np
import pytest

from singular_geom import cli
from singular_geom.algebra import Metric, Vec3
from singular_geom.surface import (
    Jet2,
    ParamSurface,
    _fields,
    singular_residual,
    singular_residual_grid,
)

E, L = Metric.EUCLIDEAN, Metric.LORENTZIAN
EZ = Vec3(0, 0, 1)


def _dilated(surf: ParamSurface, lam: float) -> ParamSurface:
    """surf with every field of its jets, pointwise and on grids, times lam."""
    def scale(j: Jet2) -> Jet2:
        return Jet2(*(type(a)(*(lam * c for c in a)) for a in _fields(j)))

    return ParamSurface.exact(surf.domain, jet_fn=lambda s, t: scale(surf.jet(s, t)),
                              grid_fn=lambda S, T: scale(surf.grid_jets(S, T)))


@pytest.mark.parametrize("k", [-3, 2, 5])
@pytest.mark.parametrize("name, m", [("helicoid", E), ("catenary-cylinder", E), ("sphere", E),
                                     ("hyperboloid", L)])
def test_a_dilated_jet_scales_the_residual_by_lambda_to_the_fifth_bitwise(name, m, k):
    """X -> lam X with lam = 2^k scales singular_residual and its grid by lam^5 exactly.

    Every jet field scales by lam, so E, F and G scale by lam^2 and each triple
    of three jet fields by lam^3: the bracket G(Xs,Xt,Xss) - 2F(Xs,Xt,Xst) +
    E(Xs,Xt,Xtt) has degree 2 + 3 = 5.  <X,v> has degree 1, W2 = EG - F^2
    degree 4 and (Xs,Xt,v) degree 2, so eps alpha (W2/<X,v>) (Xs,Xt,v) has
    degree 4 - 1 + 2 = 5 as well.  A product or quotient of floats scaled by
    powers of two is the scaled float, and so is a sum of two terms scaled
    alike, so the relation holds with no rounding difference on cells where
    nothing overflows or underflows and no floor is met; all cells here are
    far from the floors, and no residual is 0, so none passes by vanishing.
    """
    lam = 2.0 ** k
    surf = cli.build_named_surface(name, 1.0)
    big = _dilated(surf, lam)
    s0, s1, t0, t1 = surf.domain
    S, T = np.linspace(s0, s1, 7), np.linspace(t0, t1, 6)
    R = singular_residual_grid(m, surf, S, T, EZ, 1.5)
    assert (R != 0.0).all()
    assert (singular_residual_grid(m, big, S, T, EZ, 1.5) == lam ** 5 * R).all()
    for s in np.linspace(s0, s1, 5).tolist():
        for t in T.tolist():
            r = singular_residual(m, surf, s, t, EZ, 1.5)
            assert r != 0.0 and singular_residual(m, big, s, t, EZ, 1.5) == lam ** 5 * r, (s, t)
