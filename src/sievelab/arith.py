"""Integer helpers shared by the sieve engines and their oracles.

primes_up_to and max_exponent work on native Python integers, so bounds
may exceed machine word size without any special handling.  Modular
inverses are Python's own pow(x, -1, m).

Table values are int64 throughout, in one form: a value whose proven
bound is below 2^(32(k-1)+62) is k = limb_count(bound) >= 1 limbs, value
= limb_0 + limb_1*2^32 + ... + limb_(k-1)*2^(32(k-1)), with limbs 0..k-2
in [0, 2^32) and the top limb signed, -2^62 <= top < 2^62 (the floor of
value / 2^(32(k-1))).  A bound below 2^62 gives k = 1, one signed word.
An array of n values is a (k, n) int64 array.  to_limbs, carry and
limb_values convert between int64 words, limbs and exact Python
integers; exact integers appear only once per row or per prime, never
once per cell.  exact_dtype is the same 2^62 rule for those values: an
int64 below it, exact Python integers from it on.

fused_divide is the one test-and-divide of a limb array by a prime: long
division down to the last word, then one wrapping multiply on it;
fused_test is that last step's mask alone, on words.  int64_residues is
the one way an array meets many small moduli.

BLOCK_CELLS is the one budget of every blocked pass (oracle, trivial
sieve, experiments), in cells, not limb words, so a block's share of a
table side is the same whatever k is; blocks() cuts a pass to fit it.
"""

from collections.abc import Iterable, Iterator
from math import prod

import numpy as np

INT64_BOUND = 2**62  # int64 bounds stay below it (exact_dtype), as do the products of grouped moduli
LIMB_BITS = 32
LIMB_MASK = 2**LIMB_BITS - 1
# limbs meet moduli below 2^31 only (a divisor, a residue group's product): a remainder r
# below one, times 2^32, plus a limb stays below 2^31*2^32 = 2^63
_LIMB_MODULUS_BOUND = 2**31
BLOCK_CELLS = 2**15  # cells one blocked pass holds at once


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


def blocks(count: int, cells_per_item: int) -> Iterator[range]:
    """Consecutive ranges of max(1, BLOCK_CELLS // cells_per_item) items covering range(count)."""
    step = max(1, BLOCK_CELLS // cells_per_item)
    for start in range(0, count, step):
        yield range(start, min(start + step, count))


def limb_count(bound: int) -> int:
    """k, the least k >= 1 with bound < 2^(32(k-1)+62): the limbs that hold
    every value of absolute value at most bound (1: one int64 word)."""
    k = 1
    while bound >= INT64_BOUND << (LIMB_BITS * (k - 1)):
        k += 1
    return k


def exact_dtype(bound: int):
    """np.int64 when |values| <= bound < 2^62, else object (exact Python
    integers): for values held once per row or per prime."""
    return np.int64 if bound < INT64_BOUND else object


def to_limbs(values, k: int) -> np.ndarray:
    """The (k, *shape) int64 limbs of an int64 array, or of an array of
    exact integers (one per row or per prime), whose absolute values are
    below 2^(32(k-1)+62).  Each arithmetic shift by 32 floors, so the top
    limb is the floor of value / 2^(32(k-1))."""
    values = np.asarray(values)
    limbs = np.empty((k,) + values.shape, dtype=np.int64)
    for i in range(k - 1):
        limbs[i] = values & LIMB_MASK
        values = values >> LIMB_BITS
    limbs[-1] = values
    return limbs


def carry(limbs: np.ndarray) -> None:
    """Bring limbs 0..k-2 of a (k, ...) array back into [0, 2^32) in place,
    pushing each one's floor of limb / 2^32 into the next; the value stays
    the same.  Every limb but the top must stay below 2^63 in absolute value
    on the way, so its arithmetic shift is exact; the top limb only meets
    additions."""
    for i in range(len(limbs) - 1):
        limbs[i + 1] += limbs[i] >> LIMB_BITS
        limbs[i] &= LIMB_MASK


def limb_values(limbs: np.ndarray) -> np.ndarray:
    """The exact values of a (k, ...) limb array, k >= 1, as Python ints
    (an object array): for reports and tests, not for sieving."""
    values = limbs[-1].astype(object)
    for limb in limbs[-2::-1]:
        values = (values << LIMB_BITS) + limb.astype(object)
    return values


def _divmod(words: np.ndarray, l: int) -> tuple[np.ndarray, np.ndarray]:
    """Floor quotient and remainder in [0, l) of int64 words by l."""
    if l == 2:
        return words >> 1, words & 1
    quotients = words // l
    return quotients, words - quotients * l


def fused_test(values: np.ndarray, l: int) -> np.ndarray:
    """The mask of the int64 words, of any shape, that l divides: for odd l
    one wrapping multiply by l^(-1) mod 2^64, one add and one unsigned
    compare, (q + floor(2^63/l)) <= floor(2^63/l) + floor((2^63-1)/l) read
    mod 2^64 (see fused_divide); the low bit for l = 2."""
    _check_divisor(values, l)
    if l == 2:
        return (values & 1) == 0
    q = values.view(np.uint64) * np.uint64(pow(l, -1, 2**64))
    q += np.uint64(2**63 // l)
    return q <= np.uint64(2**63 // l + (2**63 - 1) // l)


def fused_divide(values: np.ndarray, l: int) -> tuple[np.ndarray, np.ndarray]:
    """(divisible, quotients): the mask of the n values of a (k, n) int64
    limb array that l divides, and those values divided by l, in order, as
    a (k, divisible) limb array in the same normal form.

    Long division from the top limb (Knuth's short division, TAOCP vol. 2,
    section 4.3.1): the top limb's floor quotient and a remainder r in
    [0, l), then for each lower limb above limb 0 the word r*2^32 + limb,
    below l*2^32 <= 2^63 for l < 2^31, gives a quotient limb in [0, 2^32)
    and the next remainder.  l divides the value exactly when it divides
    the last word, limb 0's: r*2^32 + limb_0, or the one row as it is at
    k = 1, so there any int64 value is valid.  No division runs on it:

      * l = 2: the low bit decides, and an arithmetic shift divides.
      * odd l: let q be the product of the word with l^(-1) mod 2^64,
        wrapped to 64 bits and read as int64.  The word x is divisible
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

    Any other even l, an l from 2^31 on or an array of another shape is a
    ValueError, any other dtype a TypeError.
    """
    _check_divisor(values, l)
    if values.ndim != 2 or l >= _LIMB_MODULUS_BOUND:
        raise ValueError(f"test-and-divide needs a (k, n) array and l < 2^31, got shape {values.shape} and l = {l}")
    quotients = np.empty_like(values)
    word = values[-1]
    for i in range(len(values) - 1, 0, -1):
        quotients[i], remainder = _divmod(word, l)
        word = (remainder << LIMB_BITS) | values[i - 1]
    last = quotients[0]
    if l == 2:
        np.right_shift(word, 1, out=last)
        divisible = (word & 1) == 0
    else:
        np.multiply(word.view(np.uint64), np.uint64(pow(l, -1, 2**64)), out=last.view(np.uint64))
        divisible = (last >= -(2**63 // l)) & (last <= (2**63 - 1) // l)
    return divisible, quotients.compress(divisible, axis=1)


def _check_divisor(values: np.ndarray, l: int) -> None:
    if l < 2:
        raise ValueError(f"divisor must be >= 2, got {l}")
    if values.dtype != np.int64:
        raise TypeError(f"test-and-divide needs an int64 array, got {values.dtype}")
    if l != 2 and l % 2 == 0:
        raise ValueError(f"test-and-divide needs l = 2 or an odd l, got {l}")


def int64_residues(values: np.ndarray, moduli: Iterable[int]) -> Iterator[np.ndarray]:
    """For each modulus in order, an int64 array congruent to values
    modulo it:

      * of a (k, n) int64 limb array, the (n,) words of a Horner pass from
        the top limb, once per group of consecutive moduli with product P:
        r = top, then r = (r mod P)*2^32 + limb for each lower limb, where
        (r mod P)*2^32 + limb < P*2^32 <= 2^63 when P is below 2^31 (each
        modulus must then lie in [1, 2^31)).  At k = 1 that is the row as
        it is, for every modulus in [1, 2^62);
      * of an object array of exact integers (Monte Carlo's draws, one per
        trial), an array of its shape reduced once per group of
        consecutive moduli, each in [1, 2^62), with product below 2^62.

    Every reduction goes into a fresh int64 buffer.  Dividing an entry by
    one prime leaves its divisibility by the others, so a caller may divide
    as it goes."""
    limbs = values.dtype == np.int64
    if limbs and values.ndim != 2:
        raise ValueError(f"residues of int64 limbs need a (k, n) array, got shape {values.shape}")
    bound = _LIMB_MODULUS_BOUND if limbs and len(values) > 1 else INT64_BOUND
    groups, product = [], bound
    for n in moduli:
        if not 1 <= n < bound:
            raise ValueError(f"modulus must lie in [1, 2^{bound.bit_length() - 1}), got {n}")
        if product * n >= bound:
            groups.append([])
            product = 1
        groups[-1].append(n)
        product *= n
    for group in groups:
        modulus = prod(group)
        if limbs:
            reduced = values[-1]
            for limb in values[-2::-1]:
                reduced = reduced % modulus
                reduced <<= LIMB_BITS
                reduced |= limb
        else:
            reduced = np.remainder(values, modulus, out=np.empty(values.shape, np.int64), casting="unsafe")
        yield from [reduced] * len(group)
