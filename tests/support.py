"""Shared test helpers: independent oracles and corpus generators.

The oracles here deliberately avoid the code paths they are used to check:
the determinant oracle is cofactor expansion, never Bareiss; the adjacency
oracle enumerates simplex pairs directly; the splitting oracle compares
evaluations instead of expansions.  The corpus generators are the ones
``kholo selftest`` draws from, re-exported here.
"""

import random

from kholo.polynomials import SparsePoly
from kholo.rationals import GaussianRational
from kholo.selftest import random_fraction, random_gq, random_poly  # noqa: F401
from kholo.simplicial import SimplicialComplex


def assert_canonical_gq(c):
    """(x + y*i)/d with d > 0 and gcd(x, y, d) == 1, so zero is (0, 0, 1)."""
    from math import gcd
    assert c.d > 0
    assert gcd(c.x, c.y, c.d) == 1


# -- determinant oracle ----------------------------------------------------------

def laplace_det(rows):
    """Cofactor expansion along the first active row, minors memoized.

    Structurally the Laplace formula; independent of Bareiss elimination.
    """
    size = len(rows)
    space = rows[0][0].space
    one = SparsePoly.constant(space, 1)
    zero = SparsePoly.zero(space)
    cache = {}

    def minor(r, cols):
        if not cols:
            return one
        key = (r, cols)
        got = cache.get(key)
        if got is not None:
            return got
        total = zero
        sign = 1
        for k, c in enumerate(cols):
            entry = rows[r][c]
            if not entry.is_zero():
                sub = minor(r + 1, cols[:k] + cols[k + 1:])
                piece = entry * sub
                total = total + piece if sign > 0 else total - piece
            sign = -sign
        cache[key] = total
        return total

    return minor(0, tuple(range(size)))


# -- splitting oracle -------------------------------------------------------------

def split_matches_evaluation(f, re_part, im_part, rng, samples=5):
    """Check p(x0 + i*y0) == re(x0, y0) + i*im(x0, y0) at random rational points."""
    n = f.space.n
    for _ in range(samples):
        xs = {f"x{j}": GaussianRational(random_fraction(rng)) for j in range(1, n + 1)}
        ys = {f"y{j}": GaussianRational(random_fraction(rng)) for j in range(1, n + 1)}
        zs = {f"z{j}": xs[f"x{j}"] + ys[f"y{j}"] * GaussianRational(0, 1)
              for j in range(1, n + 1)}
        point = {**xs, **ys}
        direct = f.eval(zs)
        split_value = re_part.eval(point) + im_part.eval(point) * GaussianRational(0, 1)
        if direct != split_value:
            return False
    return True


# -- floating-point evaluation ----------------------------------------------------

def _to_complex(c):
    return float(c.re) + 1j * float(c.im)


def evaluate_complex(p, point):
    """Floating-point value of p at a complex assignment {name: complex}."""
    total = 0j
    for exps, coeff in p._terms.items():
        term = _to_complex(coeff)
        for k, e in enumerate(exps):
            if e:
                term *= point[p.space.names[k]] ** e
        total += term
    return total


# -- simplicial helpers ------------------------------------------------------------

def grid_complex(rows, cols, diagonals=None):
    """Unit-square grid, each cell split into two triangles.

    ``diagonals`` maps cell index (row-major) to 0 (main diagonal) or 1
    (anti-diagonal); defaults to all main.
    """
    vertices = [(c, r) for r in range(rows + 1) for c in range(cols + 1)]

    def v(r, c):
        return r * (cols + 1) + c

    top = []
    for r in range(rows):
        for c in range(cols):
            cell = r * cols + c
            kind = 0 if diagonals is None else diagonals[cell]
            a, b = v(r, c), v(r, c + 1)
            d, e = v(r + 1, c + 1), v(r + 1, c)
            if kind == 0:
                top.append((a, b, d))
                top.append((a, d, e))
            else:
                top.append((a, b, e))
                top.append((b, d, e))
    return SimplicialComplex(dim=2, vertices=vertices, top=top)


def shared_facet_pairs(complex_):
    """Oracle: brute-force pair enumeration counting shared (n-1)-faces."""
    n = complex_.dim
    pairs = []
    for a in range(len(complex_.top)):
        for b in range(a + 1, len(complex_.top)):
            if len(set(complex_.top[a]) & set(complex_.top[b])) == n:
                pairs.append((a, b))
    return pairs


# -- misc ---------------------------------------------------------------------------

def seeded(seed):
    return random.Random(seed)
