"""Exact computational certificate for the A6.mu4 extensions on K3 surfaces.

Among the four groups of shape A6.mu4 (built over the normal subgroups A6,
S6, PGL(2,9) and M10 of Aut(A6)), exactly one can act faithfully on a
complex K3 surface: M10(2).  This package reconstructs every finite
computation behind that statement from first principles, in exact
arithmetic, and exposes the chain as a verification CLI.
"""

__version__ = "0.1.0"

from .exact import CycloNum, galois_apply
from .permgrp import Perm, PermGroup, VerificationError, closure, conjugacy_classes, fingerprint, require
from .pgl9 import build_pgammal29, build_pgl29, build_psl29, classify_overgroups
from .chartab import character_table, match_reference_table
from .extbuild import KINDS, build_candidate, identify, pairwise_nonisomorphic
from .k3verify import (
    NikulinTable,
    lefschetz_invariant_rank,
    run_exclusion,
    solve_decomposition,
)

__all__ = [
    "__version__",
    "CycloNum",
    "galois_apply",
    "Perm",
    "PermGroup",
    "VerificationError",
    "require",
    "closure",
    "conjugacy_classes",
    "fingerprint",
    "build_pgl29",
    "build_pgammal29",
    "build_psl29",
    "classify_overgroups",
    "character_table",
    "match_reference_table",
    "KINDS",
    "build_candidate",
    "identify",
    "pairwise_nonisomorphic",
    "NikulinTable",
    "lefschetz_invariant_rank",
    "solve_decomposition",
    "run_exclusion",
]
