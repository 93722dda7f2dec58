"""Tolerance configuration.

All tolerances are scale-relative: the raw value is multiplied by the
dominant scale of the matrix at hand (max absolute diagonal entry, largest
eigenvalue, or max entry, depending on the check). The sign dead-band is
the one setting; the other four are fixed gates, read where each check is
made.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar


@dataclass(frozen=True)
class Tolerances:
    # row sums, off-diagonal sign dead-band, symmetry, angle sign dead-band
    validation: float = 1e-9
    # eigenvalue treated as zero iff mu <= zero_eigenvalue * mu_max
    zero_eigenvalue: ClassVar[float] = 1e-10
    # pass threshold for residual reports (Fiedler identity, circumsphere)
    residual: ClassVar[float] = 1e-8
    # absolute slack for triangle-inequality checks, relative to max entry
    metric_slack: ClassVar[float] = 1e-12
    # rounding clamp applied when re-canonicalizing Schur complements
    clamp: ClassVar[float] = 1e-12


DEFAULT = Tolerances()
