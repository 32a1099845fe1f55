"""Exact computation with the rank / isotropic-rank stratification of
e-by-f matrix spaces carrying a non-degenerate bilinear form on the
column side: classification, representatives, dimensions, defining
equations and a desk-scale verification harness over small finite fields
and the rationals."""

__version__ = "0.1.0"
