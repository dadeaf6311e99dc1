"""Problem generators: model PDE operators, SuiteSparse surrogates, and
synthetic matrices with controlled conditioning for the numerics studies.
"""

from repro.matrices.stencil import convection_diffusion_2d, laplace2d
from repro.matrices.synthetic import glued_matrix, logscaled_matrix
from repro.matrices.suitesparse import (build_surrogate, scale_columns_rows,
                                        surrogate)
from repro.matrices.io import read_matrix_market

__all__ = [
    "laplace2d",
    "convection_diffusion_2d",
    "logscaled_matrix",
    "glued_matrix",
    "surrogate",
    "build_surrogate",
    "scale_columns_rows",
    "read_matrix_market",
]
