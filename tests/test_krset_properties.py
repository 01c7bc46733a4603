"""Property test: every weight of P+ is rebuilt from its reduced expression."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from krlib import krset
from krlib.rootsys import LieType, build

SWEEP = [
    build(LieType(f, n))
    for f, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
    for n in range(lo, 6)
]


@st.composite
def graded_weights(draw):
    """(algebra of rank <= 5, node, level <= 12, weight of P+(node, level))."""
    rs = draw(st.sampled_from(SWEEP))
    i = draw(st.integers(1, rs.rank))
    m = draw(st.integers(0, 12))
    mu = draw(st.sampled_from(sorted(krset.pplus(rs, i, m))))
    return rs, i, m, mu


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(graded_weights())
def test_reduced_expression_rebuilds_the_weight(case):
    rs, i, m, mu = case
    d = rs.dcheck[i - 1]
    chain = krset.enumerate_chain(rs, i).weights
    js = krset.reduced_expression(krset.datum(rs.type), i, m, mu)
    assert len(js) == m // d and list(js) == sorted(js)
    rebuilt = rs.fundamental(i, m % d)
    for j in js:
        rebuilt = tuple(a + b for a, b in zip(rebuilt, chain[j]))
    assert rebuilt == mu
    assert krset.grade(rs, i, m, mu) == sum(js)
