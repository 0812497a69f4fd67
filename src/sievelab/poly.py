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
value's proven bound needs, one limb below 2^62.  eval_norm applies that
rule step by step: each Horner step has its own partial bound, so an
evaluation runs on int64 words up to the first step whose bound reaches
2^62 and on limbs only from there on, with each row's exact term
c * b^(k+1) computed once.
exact_dtype is the same rule for values held once per row or per prime,
which stay exact Python integers above 2^62.  table_factors builds both
factors of a block of table rows and their live mask that way; it is the
one builder of cell factors, used by the engine for the whole table and
by the oracle block by block.
"""

from dataclasses import dataclass

import numpy as np

from .arith import INT64_BOUND, carry, limb_count, to_limbs


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


def eval_norm(f: SievePolynomial, a, b):
    """F(a, b) by Horner in a with ascending powers of b folded in.

    `a` and `b` are ints or numpy arrays that broadcast against each other
    (a row of a values and a column of b values give the whole table).
    Step k = 0..d-1 multiplies by a and adds c_(d-1-k) * b^(k+1), leaving
    the k+2 leading terms of F, so with u the largest |a| or |b| every
    intermediate of step k is bounded by m*(k+2)*u^(k+1).  Given an int64
    array, the steps run on int64 words while that partial bound stays below
    2^62, and from the first step past it on the limbs of arith: the result
    is an int64 array of shape (k, ...) with k = limb_count(algebraic_bound(
    f, u)) >= 1, the words themselves at k = 1.  Ints (and object arrays)
    stay exact throughout.

    A limb step multiplies every limb by a, adds the limbs of the row term
    c * b^(k+1), computed exactly once per entry of b, and carries.  With
    |a| < 2^30, a lower limb stays below (2^32 - 1)*(|a| + 1) + |carry| <
    2^63 before its carry, and the carry below |a| + 2; the top limb only
    meets multiplications and additions, which wrap mod 2^64, and ends at
    the floor of the step's value / 2^(32(k-1)), which the bound keeps in
    [-2^62, 2^62).
    """
    coeffs = f.coefficients
    switch = f.degree  # the first step on limbs
    int64 = any(isinstance(x, np.ndarray) and x.dtype == np.int64 for x in (a, b))
    if int64:
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        u = int(max(np.max(np.abs(a), initial=0), np.max(np.abs(b), initial=0)))
        bounds = [f.m * (k + 2) * u ** (k + 1) for k in range(f.degree)]
        switch = next((k for k, bound in enumerate(bounds) if bound >= INT64_BOUND), switch)
    if switch == 0:
        acc = np.ones(np.broadcast_shapes(a.shape, b.shape), dtype=np.int64)  # c_d, before step 0
    else:
        acc, bp = coeffs[-1] * a + coeffs[-2] * b, b  # step 0; a fresh array, updated in place below
        for k in range(1, switch):
            bp = bp * b
            acc *= a
            acc += coeffs[-2 - k] * bp
    if not int64:
        return acc
    if switch < f.degree and np.max(np.abs(a), initial=0) >= 2**30:
        raise ValueError(f"limb steps need |a| < 2^30, got {np.max(np.abs(a))}")
    acc = to_limbs(acc, limb_count(bounds[-1]))
    for k in range(switch, f.degree):
        acc *= a
        _add_row_term(acc, coeffs[-2 - k], b, k + 1)
    return acc


def _add_row_term(acc: np.ndarray, c: int, b: np.ndarray, power: int) -> None:
    """acc += c * b^power in place on the (k, ...) limbs acc, then carry."""
    terms = to_limbs(np.array([c * x**power for x in b.ravel().tolist()], dtype=object).reshape(b.shape), len(acc))
    acc += terms.reshape(terms.shape[:1] + (1,) * (acc.ndim - terms.ndim) + terms.shape[1:])
    carry(acc)


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


def exact_dtype(bound: int):
    """np.int64 when |values| <= bound < 2^62, else object (exact Python
    integers): for values held once per row or per prime."""
    return np.int64 if bound < INT64_BOUND else object


def table_factors(f: SievePolynomial, u: int, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """a - b*m and F(a, b) for a in [-u, u] and the rows b (a column), with
    the live mask: gcd(a, b) = 1 and both factors nonzero.  Each side is an
    int64 array of shape (k, rows, 2u+1) with k = limb_count of its proven
    bound over the whole table; eval_norm runs on words up to the Horner
    step where the algebraic side's partial bound reaches 2^62.  The
    rational side is the limbs of a plus those of the row term -m * b."""
    a = np.arange(-u, u + 1, dtype=np.int64)
    rational = to_limbs(np.broadcast_to(a, (b.shape[0], a.size)), limb_count(rational_bound(f, u)))
    _add_row_term(rational, -f.m, b, 1)
    algebraic = eval_norm(f, a, b)
    live = (np.gcd(a, b) == 1) & rational.any(axis=0) & algebraic.any(axis=0)
    return rational, algebraic, live
