"""Monic integer polynomials and their homogeneous norm forms.

A sieve instance is built from a monic polynomial f(x) = sum c_i x^i of
degree d >= 2 together with a positive integer m that bounds the lower
coefficients (|c_i| <= m for i < d) and acts as the rational-side root.
The algebraic side of a table entry is the binary form

    F(a, b) = sum_{i=0..d} c_i a^i b^(d-i) = b^d f(a/b),

so F(a, 1) = f(a) and, for l not dividing b, the l-adic valuation of
F(a, b) is controlled by the roots of f modulo powers of l.  F has the
same coefficients as f, so eval_norm takes f itself; it is the one
evaluator of F.  The roots module evaluates f itself, reduced mod l^2
in its residue kernel and mod l^e in the ladders' Newton steps.

Arrays of table values are int64 throughout, in arith's one form: the
limb_count(bound) >= 1 limbs of 32 bits with a signed top limb that a
value's proven bound needs, one limb below 2^62.  eval_norm evaluates a
form on those limbs at every Horner step, with each row's exact term
c * b^i computed once; the caller passes the proven bound, which fixes
the limb count.  table_factors builds both factors of a block of table
rows and their live mask that way, the rational side as the norm form
a - m*b of x - m; it is the one builder of cell factors, used by the
engine for the whole table and by the oracle block by block.
"""

from dataclasses import dataclass

import numpy as np

from .arith import carry, limb_count, to_limbs


@dataclass(frozen=True)
class MonicPolynomial:
    """Coefficients c_0..c_d in ascending order, with c_d == 1."""

    coefficients: tuple[int, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(int(c) for c in self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        if len(coeffs) < 2:
            raise ValueError("polynomial must have degree >= 1")
        if coeffs[-1] != 1:
            raise ValueError(f"polynomial must be monic: leading coefficient c_d must be 1, got {coeffs[-1]}")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1


@dataclass(frozen=True)
class SievePolynomial(MonicPolynomial):
    """A monic polynomial admissible for table building: degree >= 2 and
    every non-leading coefficient bounded by m in absolute value."""

    m: int

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.degree < 2:
            raise ValueError(f"sieve polynomial must have degree >= 2, got {self.degree}")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        for i, c in enumerate(self.coefficients[:-1]):
            if abs(c) > self.m:
                raise ValueError(f"|c_{i}| = {abs(c)} exceeds m = {self.m}")


def eval_norm(f: MonicPolynomial, a, b, bound: int) -> np.ndarray:
    """F(a, b) = sum c_i a^i b^(d-i) by Horner in a, as the (k, ...) int64
    limbs of arith with k = limb_count(bound).

    `a` and `b` are integer arrays that broadcast against each other (a row
    of a values and a column of b values give the whole table).  The
    accumulator starts as the limbs of c_d = 1, and step i = 1..d
    multiplies every limb by a, adds the limbs of the row term
    c_(d-i) * b^i, computed exactly once per entry of b, and carries.  After
    step i it holds sum_(j<=i) c_(d-j) a^(i-j) b^j, so with u the largest
    |a| or |b| every intermediate is at most sum |c_i| * u^d, and a bound
    below that is a ValueError, as is an |a| from 2^30 on.

    With |a| < 2^30, a lower limb stays below (2^32 - 1)*(|a| + 1) + |carry|
    < 2^63 before its carry, and the carry below |a| + 2; the top limb only
    meets multiplications and additions, which wrap mod 2^64, and ends at
    the floor of the step's value / 2^(32(k-1)), which the bound keeps in
    [-2^62, 2^62).
    """
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    largest_a, largest_b = (int(np.max(np.abs(x), initial=0)) for x in (a, b))
    if largest_a >= 2**30:
        raise ValueError(f"limb steps need |a| < 2^30, got {largest_a}")
    u = max(largest_a, largest_b)
    if bound < sum(abs(c) for c in f.coefficients) * u**f.degree:
        raise ValueError(f"bound {bound} is below sum |c_i| * u^d at u = {u}")
    acc = np.zeros((limb_count(bound),) + np.broadcast_shapes(a.shape, b.shape), dtype=np.int64)
    acc[0] = 1
    rows = b.ravel().tolist()
    term_shape = acc.shape[:1] + (1,) * (acc.ndim - 1 - b.ndim) + b.shape
    for i, c in enumerate(reversed(f.coefficients[:-1]), start=1):
        acc *= a
        acc += to_limbs(np.array([c * x**i for x in rows], dtype=object), len(acc)).reshape(term_shape)
        carry(acc)
    return acc


def rational_bound(f: SievePolynomial, u: int) -> int:
    """Upper bound u*(m+1) on |a - b*m| over the table region."""
    if u < 1:
        raise ValueError(f"u must be >= 1, got {u}")
    return u * (f.m + 1)


def algebraic_bound(f: SievePolynomial, u: int) -> int:
    """Upper bound m*(d+1)*u^d on |F(a, b)| over the table region."""
    if u < 1:
        raise ValueError(f"u must be >= 1, got {u}")
    return f.m * (f.degree + 1) * u**f.degree


def table_factors(f: SievePolynomial, u: int, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """a - b*m and F(a, b) for a in [-u, u] and the rows b (a column), with
    the live mask: gcd(a, b) = 1 and both factors nonzero.  Each side is an
    int64 array of shape (k, rows, 2u+1) with k = limb_count of its proven
    bound over the whole table, both from eval_norm: the rational side is
    the norm form of x - m."""
    a = np.arange(-u, u + 1, dtype=np.int64)
    rational = eval_norm(MonicPolynomial((-f.m, 1)), a, b, rational_bound(f, u))
    algebraic = eval_norm(f, a, b, algebraic_bound(f, u))
    live = (np.gcd(a, b) == 1) & rational.any(axis=0) & algebraic.any(axis=0)
    return rational, algebraic, live
