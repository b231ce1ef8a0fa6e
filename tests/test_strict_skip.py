"""Strictification runs only when the stage-1 function is not certified strict.

Tangent envelopes of the canonical quadratic are certified strictly convex by
the cell walk, so `approximate` hands them straight to the perturbation; a
non-strict function target still goes through barycentric strictification.
"""

from fractions import Fraction as F

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tropma import PeriodicPLFunction, approximate, linearity_cells, tangent_pl
from tropma.approx import ApproxRequest
from tropma.cocycle import Cocycle
from tropma.jsonio import enc_certificate

LATTICES = ([[1, 0], [0, 1]], [[1, 0], [1, 2]], [[2, 0], [0, 1]], [[1, 1], [0, 2]])


@st.composite
def polarized_cocycles(draw):
    """Λ from LATTICES, integral positive definite b with entries in [-1, 3],
    z0 in (1/4)Z^2."""
    b11 = draw(st.integers(1, 3))
    b22 = draw(st.integers(1, 3))
    b12 = draw(st.integers(-1, 3).filter(lambda x: x * x < b11 * b22))
    z0 = [F(draw(st.integers(-4, 4)), 4) for _ in range(2)]
    return Cocycle.make(draw(st.sampled_from(LATTICES)), [[b11, b12], [b12, b22]], z0)


@settings(max_examples=6, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(polarized_cocycles())
def test_canonical_targets_skip_strictification(c):
    for k in (1, 2):
        assert linearity_cells(tangent_pl(c, k))[2]
    eps = F(1, 4)
    f, _, cert = approximate(ApproxRequest(cocycle=c, eps=eps, rng_seed=0))
    stages = enc_certificate(cert)["stage_errors"]
    assert stages["strictify"] is None
    assert len(f.pieces) == cert.mesh_k ** 2
    assert cert.stage_errors.tangent <= eps / 2
    assert cert.sup_error_bound == cert.stage_errors.tangent + cert.stage_errors.perturb
    assert cert.sup_error_bound <= eps
    assert cert.ok


def test_non_strict_target_is_strictified(tate):
    base = tangent_pl(tate, 2)
    target = PeriodicPLFunction(tate, list(base.pieces) + [base.pieces[0]])
    assert not linearity_cells(target)[2]
    eps = F(1, 4)
    f, _, cert = approximate(ApproxRequest(function=target, eps=eps, rng_seed=0))
    stages = cert.stage_errors
    assert stages.tangent is None and cert.mesh_k is None
    assert 0 < stages.strictify <= eps / 2
    assert 0 <= stages.perturb < eps / 2
    assert cert.sup_error_bound == stages.strictify + stages.perturb <= eps
    assert len(f.pieces) > len(target.pieces) and cert.ok

