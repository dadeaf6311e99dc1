"""Mixed-precision orthogonalization: the dd-Gram kernels.

Every basis vector and every reduction of this library is fp64; what
this package adds is a Gram matrix formed in double-double.
:mod:`repro.precision.kernels` holds the dd-Gram BCGS-PIP pass and
:class:`~repro.precision.kernels.MixedPrecisionTwoStageScheme`.  Nothing
is re-exported here: the kernels pull in :mod:`repro.ortho`, whose
registry imports them, so consumers import
:mod:`repro.precision.kernels` directly.
"""
