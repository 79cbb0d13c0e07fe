"""Exact and numeric Seeley-de Witt coefficients for Bianchi IX gravitational instantons.

The pipeline: theta functions with characteristics (as exact nome series over
cyclotomic rationals, and as numeric jets) -> instanton metric functions
w1, w2, w3, F -> heat-trace coefficients a0, a2, a4 -> PSL2(Z) orbit sums ->
identification against classical modular forms.
"""

__version__ = "0.1.0"
