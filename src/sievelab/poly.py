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

Arrays of table values take their dtype from a proven bound through
exact_dtype: int64 below 2^62, exact Python integers (object) above.
eval_norm applies that rule step by step: each Horner step has its own
partial bound, so an evaluation runs in int64 up to the first step whose
bound reaches 2^62 and in exact integers only from there on.
table_factors builds both factors of a block of table rows and their
live mask that way; it is the one builder of cell factors, used by the
engine for the whole table and by the oracle block by block.
"""

from dataclasses import dataclass

import numpy as np

from .arith import INT64_BOUND


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
    intermediate of step k is bounded by m*(k+2)*u^(k+1).  On int64 arrays
    the steps run in int64 while that partial bound stays below 2^62, and
    from the first step past it in exact Python integers (object).  The
    last step's bound is algebraic_bound(f, u), so the result dtype is
    exact_dtype(algebraic_bound(f, u)).  Ints and object arrays stay exact
    throughout.
    """
    switch = f.degree  # the first step that runs in exact integers
    if any(isinstance(x, np.ndarray) and x.dtype == np.int64 for x in (a, b)):
        u = int(max(np.max(np.abs(a), initial=0), np.max(np.abs(b), initial=0)))
        switch = next((k for k in range(f.degree) if exact_dtype(f.m * (k + 2) * u ** (k + 1)) is object), switch)
    coeffs = f.coefficients
    if switch == 0:
        a, b = np.asarray(a, dtype=object), np.asarray(b, dtype=object)
    acc, bp = coeffs[-1] * a + coeffs[-2] * b, b  # step 0; a fresh array, updated in place below
    for k in range(1, f.degree):
        if k == switch:
            a, b, acc, bp = (np.asarray(x, dtype=object) for x in (a, b, acc, bp))
        bp = bp * b
        acc *= a
        acc += coeffs[-2 - k] * bp
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


def exact_dtype(bound: int):
    """np.int64 when |values| <= bound < 2^62, else object (exact Python integers)."""
    return np.int64 if bound < INT64_BOUND else object


def table_factors(f: SievePolynomial, u: int, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """a - b*m and F(a, b) for a in [-u, u] and the rows b (a column), with
    the live mask: gcd(a, b) = 1 and both factors nonzero.  Each side has
    the dtype its proven bound over the whole table allows; eval_norm runs
    in int64 up to the Horner step where the algebraic side's partial
    bound reaches 2^62."""
    a = np.arange(-u, u + 1, dtype=np.int64)
    rat_t = exact_dtype(rational_bound(f, u))
    rational = a.astype(rat_t) - b.astype(rat_t) * f.m
    algebraic = eval_norm(f, a, b)
    live = (np.gcd(a, b) == 1) & (rational != 0) & (algebraic != 0)
    return rational, algebraic, live
