"""Printed numbers against references computed independently of src/.

The corpus starts with the catalog's `spectrum` roots: every fundamental
root k and its multiplicity, at the 12 significant digits the CLI
prints, against the mpmath roots of the Fraction Yun factors of the
same secular polynomial.
"""

import pytest

from specgraph import secular_poly, spectrum_report
from specgraph.constructions import CATALOG_IDS, catalog

from kernel_oracles import reference_printed_spectrum


@pytest.mark.parametrize("name", CATALOG_IDS)
def test_catalog_spectrum_roots(name):
    g = catalog(name)
    want = {f"{k:.12g}": m for k, m in spectrum_report(g).fundamental_roots}
    assert reference_printed_spectrum(secular_poly(g).coeffs) == want

