"""Weyl groups walked from Cartan matrices, A[i][j] = <alpha_i, alpha_j^vee>,
for acceptance criterion 10. Stdlib alone: no `borelline` import."""

from __future__ import annotations


def poincare_coefficients(cartan):
    """The number of elements of each length, by a breadth-first walk of the
    Cayley graph over the simple reflections: an element is keyed by its
    images of the simple roots, and its length is its distance from 1."""
    n = len(cartan)
    layer = [tuple(tuple(int(k == i) for k in range(n)) for i in range(n))]
    seen, counts = set(layer), []
    while layer:
        counts.append(len(layer))
        nxt = []
        for images in layer:
            for j in range(n):
                # s_j sends a root r to r - <r, alpha_j^vee> alpha_j
                w = tuple(tuple(c - sum(r[k] * cartan[k][j] for k in range(n)) * (i == j)
                                for i, c in enumerate(r)) for r in images)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        layer = nxt
    return tuple(counts)


def degree_product(degrees):
    """The coefficients of prod_d (1 + t + ... + t^(d - 1))."""
    coeffs = [1]
    for d in degrees:
        coeffs = [sum(coeffs[max(0, k - d + 1):k + 1]) for k in range(len(coeffs) + d - 1)]
    return tuple(coeffs)


CLASSICAL_DEGREES = {"A1": (2,), "A2": (2, 3), "B2": (2, 4), "A3": (2, 3, 4)}
