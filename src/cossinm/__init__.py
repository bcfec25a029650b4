"""Matrix cosine and sine, simultaneously, via factored polynomial schemes.

The library computes cos(A) and sin(A) in one pass (sharing every matrix
product between them), the wave kernels c(t^2 A) and s(t, A) without any
matrix square root, and a rational order-8 baseline for comparison.  Norms
beyond a scheme's threshold are handled by exact power-of-two scaling and
double-angle recovery.  The cossinm.verify module, imported on its own
(it needs mpmath), re-derives every shipped threshold and checks every
scheme's order conditions against the true series with extended-precision
coefficient extraction.
"""

from .driver import (
    ComputationReport,
    cos_sin,
    pade_cos_sin,
    select_scheme,
    wave_cos_sin,
)
from .gallery import CorpusSpec, generate_corpus
from .matcore import (
    CostLedger,
    DenseMatrix,
    MatrixInputError,
    SingularMatrixError,
    matrix_from_rows,
    norm1,
    read_matrix,
    write_matrix,
)
from .schemes import (
    PADE8,
    CosSinResult,
    SchemeFamily,
    SchemeId,
    pade8_cos_sin,
    taylor_cos_sin,
    wave_kernels,
)
from .theta_tables import Precision, ThetaEntry, ThetaTable

__version__ = "0.1.0"

__all__ = [
    "ComputationReport",
    "CorpusSpec",
    "CosSinResult",
    "CostLedger",
    "DenseMatrix",
    "MatrixInputError",
    "PADE8",
    "Precision",
    "SchemeFamily",
    "SchemeId",
    "SingularMatrixError",
    "ThetaEntry",
    "ThetaTable",
    "cos_sin",
    "generate_corpus",
    "matrix_from_rows",
    "norm1",
    "pade8_cos_sin",
    "pade_cos_sin",
    "read_matrix",
    "select_scheme",
    "taylor_cos_sin",
    "wave_cos_sin",
    "wave_kernels",
    "write_matrix",
]
