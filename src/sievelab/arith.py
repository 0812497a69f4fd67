"""Exact integer helpers shared by the sieve engines and their oracles.

Everything here works on native Python integers, so values may exceed
machine word size without any special handling.
"""


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


def valuation(n: int, l: int) -> int:
    """Largest e with l**e dividing n.  Undefined (error) for n == 0."""
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    if l < 2:
        raise ValueError(f"valuation base must be >= 2, got {l}")
    e = 0
    while True:
        q, r = divmod(n, l)
        if r:
            return e
        n = q
        e += 1


def mod_inverse(x: int, modulus: int) -> int:
    """Inverse of x modulo modulus; error when gcd(x, modulus) != 1."""
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    try:
        return pow(x, -1, modulus)
    except ValueError:
        raise ValueError(f"{x} is not invertible modulo {modulus}") from None


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

