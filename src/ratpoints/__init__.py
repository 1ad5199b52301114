"""Exact-arithmetic counting of rational points of bounded height.

Subpackages cover primitive-vector kernels (exact), integer polynomials
(poly), brute-force and residue-filtered enumeration (enumeration),
tangent-conic parameterization (curves), tangent-plane classification
and birational projection (geometry), the two-prime determinant method
(detmethod), and the experiment harness (harness).
"""

__version__ = "0.1.0"
