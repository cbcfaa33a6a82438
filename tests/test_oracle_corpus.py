"""Printed numbers against references computed independently of src/.

The corpus starts with the catalog's `spectrum` roots: every fundamental
root k and its multiplicity, at the 12 significant digits the CLI
prints, against the mpmath roots of the Fraction Yun factors of the
same secular polynomial.  Regular graphs of large degree and high
multiplicity are checked against the closed forms of their adjacency
spectra instead, which need no polynomial.
"""

from collections import Counter
from itertools import combinations
from math import comb

import mpmath
import pytest

from specgraph import from_edge_list, secular_poly, spectrum_report
from specgraph.constructions import CATALOG_IDS, catalog

from kernel_oracles import reference_printed_spectrum, regular_printed_spectrum


@pytest.mark.parametrize("name", CATALOG_IDS)
def test_catalog_spectrum_roots(name):
    g = catalog(name)
    want = {f"{k:.12g}": m for k, m in spectrum_report(g).fundamental_roots}
    assert reference_printed_spectrum(secular_poly(g).coeffs) == want



def complete(n):
    """K_n: theta = n - 1 once and -1 with multiplicity n - 1."""
    return (from_edge_list(n, list(combinations(range(n), 2))), n - 1,
            [(n - 1, 1), (-1, n - 1)])


def cube(d):
    """The d-cube: theta = d - 2i with multiplicity C(d, i)."""
    edges = [(u, u ^ (1 << b)) for u in range(2 ** d) for b in range(d) if u < u ^ (1 << b)]
    return from_edge_list(2 ** d, edges), d, [(d - 2 * i, comb(d, i)) for i in range(d + 1)]


def cycle(n):
    """C_n: theta = 2 cos(2 pi j / n) for j = 0..n-1, at 40 digits."""
    with mpmath.workdps(40):
        thetas = [(2 * mpmath.cos(2 * mpmath.pi * j / n), 1) for j in range(n)]
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)]), 2, thetas


# the largest members, 0.3 to 3.5 s each, run only in the slow set
@pytest.mark.parametrize("family, size", [
    (complete, 10), (complete, 20), pytest.param(complete, 30, marks=pytest.mark.slow),
    (cube, 4), (cube, 5), pytest.param(cube, 6, marks=pytest.mark.slow),
    (cycle, 31), pytest.param(cycle, 61, marks=pytest.mark.slow),
    # 12 pi / 97 = 0.38865063755750019... rounds to 0.388650637558, but
    # the root computed is 0.3886506375574994, 8e-16 below, on the other
    # side of the rounding boundary
    pytest.param(cycle, 97, marks=[pytest.mark.slow, pytest.mark.xfail(
        strict=True, reason="12 pi / 97 prints 0.388650637557, not 0.388650637558")]),
], ids=lambda v: v.__name__ if callable(v) else str(v))
def test_regular_spectrum_closed_form(family, size):
    g, degree, thetas = family(size)
    want = regular_printed_spectrum(thetas, degree, g.n_edges - g.n_vertices)
    assert sum(want.values()) == 2 * g.n_edges
    got = Counter()
    for k, m in spectrum_report(g).fundamental_roots:
        got[f"{k:.12g}"] += m
    assert got == want
