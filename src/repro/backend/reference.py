"""The bit-exact reference backend (numpy, float64 parameters).

This is the default backend and the reproducibility anchor: every
primitive is the base class's NumPy expression — the exact code the
call sites ran before the backend seam existed — so training
fingerprints, the committed golden suite, and every published results/
table are byte-identical to pre-backend history. The reference tier is
what all parity suites compare against, which is why it must never be
"optimized": any floating-point change here re-rolls every recorded
outcome.
"""

from __future__ import annotations

from .base import ArrayBackend


class ReferenceBackend(ArrayBackend):
    """numpy/float64 reference: inherits every base primitive verbatim."""

    name = "reference"
    param_dtype = None  # follow init.PARAM_DTYPE (float64 by default)
    accelerated = False
