"""weil: exact-arithmetic Weil-algebra calculus, Chern-Weil forms,
equivariant Weil models, and their classification oracles."""

__version__ = "0.1.0"

from .liealg import LieAlgebra, builtin, coadjoint, validate  # noqa: F401
from .weil_algebra import (WeilElement, contract, curvature_generator,  # noqa: F401
                           d_K, graded_dims, horizontal_project,
                           koszul_cohomology_dims, lie_derivative, multiply)
from .invariant_polynomials import (basic_subspace, invariant_basis,  # noqa: F401
                                    invariant_dims)
from .chart_forms import ChartForm, PolyMap, d, pullback, wedge  # noqa: F401
from .chern_weil import (GaugeTransform, LieValuedForm, curvature,  # noqa: F401
                         cw_form, gauge_transform)
from .equivariant import WeilModel  # noqa: F401
from .polyfunctor import (BlackBoxMap, FunctorSpec,  # noqa: F401
                          homogeneous_decompose, is_polynomial,
                          restriction_injectivity)
from .schur_oracle import (EquivHomProblem, equivariant_hom_dim,  # noqa: F401
                           verify_bidegree)
