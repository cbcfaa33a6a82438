"""specgraph: exact and numeric spectral computation for metric graphs.

Secular polynomials and normalized-Laplacian characteristic polynomials
are computed in exact integer arithmetic; M-functions, Steklov
eigenvalue branches and detectable spectra numerically.  Construction
methods assemble isospectral graph pairs and certify them exactly.
"""

from .constructions import (CATALOG_IDS, ComposedHost, Slot, assemble,
                            build_clarifying_example, catalog,
                            inner_symmetry_quotient, method1_extend,
                            method2_exchange, method2_permute, substitute)
from .discrete import (LnCharpoly, PropositionReport, ln_charpoly,
                       ln_isospectral, proposition_check)
from .exact import (ExactError, ProjectivePoly, det_exact, pencil_det,
                    poly_mul, poly_normalize, poly_pow, squarefree_factors)
from .graphs import (DiscreteGraph, GraphError, GraphFormatError, MetricGraph,
                     betti, canonical_form, chop_vertex, components,
                     discrete_betti, discrete_components, discrete_from_adj,
                     disjoint_union, format_graph, from_edge_list, glue,
                     join_points, merge_vertices, metric_from_discrete,
                     parse_graph, scale_lengths,
                     subdivide_edge, suppress_degree2, to_discrete,
                     unit_subdivided)
from .mfunction import (DEFAULT_SAMPLES, DetectionResult, EquivalenceResult,
                        MFunEval, Method3Report, SingularSampleError,
                        SteklovCurve, detectable_spectrum,
                        invisible_multiplicity, m_function, method3_verify,
                        steklov_eigs, steklov_equivalent, steklov_sweep)
from .search import (IsospectralFamily, classify, enumerate_connected_multi,
                     enumerate_connected_simple)
from .secular import (SecularError, SecularMatrixSpec, SpectrumReport,
                      metric_isospectral, secular_poly, spectrum_report)

__version__ = "0.1.0"
