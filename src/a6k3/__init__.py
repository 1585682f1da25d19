"""Exact computational certificate for the A6.mu4 extensions on K3 surfaces.

Among the four groups of shape A6.mu4 (built over the normal subgroups A6,
S6, PGL(2,9) and M10 of Aut(A6)), exactly one can act faithfully on a
complex K3 surface: M10(2).  This package reconstructs every finite
computation behind that statement from first principles, in exact
arithmetic, and exposes the chain as a verification CLI.
"""

__version__ = "0.1.0"
