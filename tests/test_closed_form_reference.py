"""The float closed form against a 40-digit decimal evaluation of its formula.

The reference evaluates the accuracy module's documented formula term by
term in decimal.Decimal, from the exact float inputs, so it shares no code
and no summation order with _closed_form_batch. The float result must lie
within ULP_BUDGET ulps of max(|d_a|, 1) of it. On 300 random clusters of
these shapes the float form was off by a median of 0.2 and at most 2.0 such
ulps, and by at most 10.8 ulps of d_a up to m = 100, so a change that only
reorders a sum stays inside the budget, while a wrong term (even one off by
beta^2 / m^2) falls far outside it.
"""

import math
from decimal import Decimal, localcontext

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corrsense import BetaFactors, CorrelationParams
from corrsense.accuracy import _closed_form_batch

ULP_BUDGET = 32


def reference_d_a(points, beta, beta_ch, theta1, theta2):
    """d_a of one cluster, points in joint order (tracing, members, head)."""
    with localcontext() as ctx:
        ctx.prec = 40
        pts = [(Decimal(x), Decimal(y)) for x, y in points]
        t1, t2 = Decimal(theta1), Decimal(theta2)
        b, b_ch = Decimal(beta), Decimal(beta_ch)

        def k(p, q):
            d = ((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2).sqrt()
            return (-((d / t1) ** t2)).exp()

        tracing, members, head = pts[0], pts[1:-1], pts[-1]
        m = len(members) + 1
        cross = 2 * (b * sum((k(tracing, p) for p in members), Decimal(0))
                     + b_ch * k(tracing, head)) / m
        pair_sum = sum((k(p, q) for i, p in enumerate(members)
                        for j, q in enumerate(members) if i != j), Decimal(0))
        head_sum = sum((k(head, p) for p in members), Decimal(0))
        second = (b * b * pair_sum + (m - 1) * b
                  + 2 * b * b_ch * head_sum + b_ch) / (m * m)
        return cross - second


@st.composite
def clusters(draw):
    """(m+1, 2) joint coordinates: m in 1..12, in a box of side 1, 30 or 500 m."""
    m = draw(st.integers(1, 12))
    side = draw(st.sampled_from([1.0, 30.0, 500.0]))
    coord = st.floats(0.0, side, allow_subnormal=False)
    return np.array(draw(st.lists(st.tuples(coord, coord),
                                  min_size=m + 1, max_size=m + 1)))


betas = st.floats(0.05, 1.0)


@given(points=clusters(), beta=betas, beta_ch=betas,
       theta1=st.floats(1.0, 500.0),
       theta2=st.sampled_from([0.5, 1.0, 1.5, 2.0]))
@example(points=np.array([[15.0, 15.0], [5.0, 0.0], [0.0, 5.0], [0.0, 0.0]]),
         beta=0.89, beta_ch=0.94, theta1=50.0, theta2=1.0)
@settings(max_examples=150, deadline=None)
def test_float_closed_form_within_ulp_budget_of_decimal_reference(
        points, beta, beta_ch, theta1, theta2):
    got = _closed_form_batch(points[None], BetaFactors(beta, beta_ch),
                             [CorrelationParams(theta1, theta2, 0.6)])[0, 0]
    want = reference_d_a(points, beta, beta_ch, theta1, theta2)
    budget = ULP_BUDGET * math.ulp(max(abs(float(want)), 1.0))
    assert abs(Decimal(float(got)) - want) <= Decimal(budget), (got, want)
