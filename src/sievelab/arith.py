"""Integer helpers shared by the sieve engines and their oracles.

primes_up_to and max_exponent work on native Python integers, so bounds
may exceed machine word size without any special handling.  Modular
inverses are Python's own pow(x, -1, m).  fused_divide is the one
test-and-divide of a numpy array by a prime: on int64 arrays it spends
one wrapping multiply per entry, on object arrays (exact Python integers)
it falls back to exact % and //.  int64_residues is the one way an array
meets many small moduli: an object array is reduced to int64 once per
group of moduli with product below 2^62, 2 passes for the primes up to 100.
"""

from collections.abc import Iterable, Iterator
from math import prod

import numpy as np

_GROUP_BOUND = 2**62  # moduli whose product stays below it share one reduction


class InvariantViolation(RuntimeError):
    """An internal consistency check that must never fail did fail."""


def primes_up_to(bound: int) -> tuple[int, ...]:
    """All primes <= bound, ascending, by sieve of Eratosthenes."""
    if bound < 2:
        raise ValueError(f"prime bound must be >= 2, got {bound}")
    flags = bytearray([1]) * (bound + 1)
    flags[0] = flags[1] = 0
    p = 2
    while p * p <= bound:
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, bound + 1, p)))
        p += 1
    return tuple(i for i, f in enumerate(flags) if f)


def max_exponent(l: int, bound: int) -> int:
    """Largest e >= 0 with l**e <= bound (0 when even l exceeds bound)."""
    if l < 2:
        raise ValueError(f"base must be >= 2, got {l}")
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    e = 0
    power = l
    while power <= bound:
        e += 1
        power *= l
    return e


def fused_divide(values: np.ndarray, l: int) -> tuple[np.ndarray, np.ndarray]:
    """(divisible, quotients): the mask of the entries of `values` that l
    divides, and those entries divided by l, in order.

    Object arrays use exact % and //.  On int64 arrays no division runs:

      * l = 2: the low bit decides, and an arithmetic shift divides.
      * odd l: let q be the product of the entry with l^(-1) mod 2^64,
        wrapped to 64 bits and read as int64.  The entry x is divisible
        exactly when -floor(2^63/l) <= q <= floor((2^63-1)/l), and then q
        is the quotient (Granlund and Montgomery, "Division by Invariant
        Integers using Multiplication", PLDI 1994, section 9).
        Proof: if x = l*k, then k*l = x lies in [-2^63, 2^63), so k lies
        in that interval (l is odd, so -2^63/l is not an integer and k >=
        -floor(2^63/l)); k is congruent to x * l^(-1) mod 2^64 and lies in
        the int64 range, so the int64 reading q is k.  Conversely, if q
        lies in the interval, then l*q lies in [-2^63, 2^63) and is
        congruent to x mod 2^64; two int64 values congruent mod 2^64 are
        equal, so x = l*q.

    Any other even l is a ValueError on int64 arrays, any other dtype a
    TypeError.
    """
    if l < 2:
        raise ValueError(f"divisor must be >= 2, got {l}")
    if values.dtype == object:
        divisible = values % l == 0
        return divisible, values[divisible] // l
    if values.dtype != np.int64:
        raise TypeError(f"test-and-divide needs an int64 or object array, got {values.dtype}")
    if l == 2:
        divisible = (values & 1) == 0
        return divisible, values[divisible] >> 1
    if l % 2 == 0:
        raise ValueError(f"int64 test-and-divide needs l = 2 or an odd l, got {l}")
    q = (values.view(np.uint64) * np.uint64(pow(l, -1, 2**64))).view(np.int64)
    divisible = (q >= -(2**63 // l)) & (q <= (2**63 - 1) // l)
    return divisible, q[divisible]


def int64_residues(values: np.ndarray, moduli: Iterable[int]) -> Iterator[np.ndarray]:
    """For each modulus in order, each in [1, 2^62), an int64 array
    congruent to values modulo it: an int64 array as it is, an object array
    reduced once per group of consecutive moduli with product below 2^62,
    into a fresh int64 buffer.  Dividing an entry by one prime leaves its
    divisibility by the others, so a caller may divide as it goes."""
    groups, product = [], _GROUP_BOUND
    for n in moduli:
        if not 1 <= n < _GROUP_BOUND:
            raise ValueError(f"modulus must lie in [1, 2^62), got {n}")
        if product * n >= _GROUP_BOUND:
            groups.append([])
            product = 1
        groups[-1].append(n)
        product *= n
    for group in groups:
        reduced = values
        if values.dtype == object:
            reduced = np.remainder(values, prod(group), out=np.empty(values.shape, np.int64), casting="unsafe")
        yield from [reduced] * len(group)
