"""Cartier vectors m_sigma, the untwistedness criterion, and both
constructive witness directions between sign-vector failures and hesitant
lambda-walks."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    CapExceeded,
    DimensionMismatch,
    IndexOutOfRange,
    NotMinimalWitness,
    PreconditionViolated,
    require_int,
    require_ints,
)
from .walks import WalkWitness
from .weightword import TwistData, Word, bound, row_entry

MINUS = "-"
PLUS = "+"

#: The cap on the word length n for is_untwisted, which visits up to
#: 2**n sign vectors.
DEFAULT_N_CAP = 20


def minus_at(n: int, positions) -> str:
    """The sign vector of length n with minus exactly at the 1-based positions."""
    if require_int("n", n) < 0:
        raise DimensionMismatch(f"sign vector length {n} is negative")
    # A bool or a float would pass the range check alone: True reads as 1.
    positions = require_ints("positions", positions)
    if positions and not (1 <= min(positions) and max(positions) <= n):
        raise IndexOutOfRange(f"a position of {positions} lies outside [1, {n}]")
    return _minus_at(n, positions)


def _minus_at(n: int, positions) -> str:
    """minus_at on a length and positions that the caller has checked."""
    signs = [PLUS] * n
    for p in positions:
        signs[p - 1] = MINUS
    return "".join(signs)


@dataclass(frozen=True)
class CartierVector:
    """The integer vector m_sigma; zero wherever sigma is +."""

    m: tuple[int, ...]


@dataclass(frozen=True)
class UntwistResult:
    """Verdict of the nonnegativity criterion, with a failing witness if any."""

    untwisted: bool
    sigma: str | None = None
    k: int | None = None
    m: CartierVector | None = None

    def to_json(self) -> dict:
        if self.untwisted:
            return {"untwisted": True}
        return {
            "untwisted": False,
            "sigma": self.sigma,
            "k": self.k,
            "m": list(self.m.m),
        }


def compute_m(d: TwistData, sigma: str) -> CartierVector:
    """Descending recursion: m_k is 0 at a plus sign, else the bound function
    evaluated at the already-computed tail.  sigma is a string over '+-'."""
    if not isinstance(sigma, str) or sigma.strip(PLUS + MINUS):
        raise DimensionMismatch(f"sigma must be a string of '+'/'-': {sigma!r}")
    if len(sigma) != d.n:
        raise DimensionMismatch(f"sigma has length {len(sigma)}, expected {d.n}")
    return CartierVector(_compute_m(d, sigma))


def _compute_m(d: TwistData, sigma: str) -> tuple[int, ...]:
    """The entries of compute_m(d, sigma), for a sign string of length d.n
    that the caller has checked: the one sigma -> m recursion."""
    m = [0] * d.n
    for k in range(d.n, 0, -1):
        if sigma[k - 1] == MINUS:
            m[k - 1] = bound(d, k, m)
    return tuple(m)


def is_untwisted(d: TwistData) -> UntwistResult:
    """Untwisted iff every m_sigma is entrywise nonnegative.  On failure
    reports the lexicographically first (sigma, k), with + ordered before -,
    and m = compute_m(d, sigma).

    The sign vectors are swept in that order, and each runs the recursion of
    compute_m from k = n down only until its first minus whose bound a is
    <= 0.  At a < 0, sigma fails.  At a = 0, m_k is 0 as at a plus, so
    m_sigma equals the Cartier vector of sigma with + at k; that sign vector
    comes earlier in the sweep and has passed, so sigma passes too.  Each
    verdict is thus that of the whole vector, and the first sigma to fail is
    the lexicographically first failing one.  m_k depends only on the signs
    from k on, so that sigma has no minus before its failing k: k is its
    only negative entry, and compute_m runs once, for it alone.

    At a sign vector's rightmost minus every m above k is a plus's 0, so a
    is ell_k, read without the bound kernel; only the minuses below it call
    bound.  The sweep still visits up to 2**n sign vectors, hence the cap.
    """
    if d.n > DEFAULT_N_CAP:
        raise CapExceeded(f"n = {d.n} exceeds cap {DEFAULT_N_CAP}")
    n, ell = d.n, d.ell
    # Each sign vector writes m from entry n down, and the bound at k reads
    # only entries above k, so m is reused without a reset.  Above the
    # rightmost minus every entry is a plus's 0, so its bound is ell_k.
    m = [0] * n
    # Built once per call: a range re-iterates, so no sign vector builds one.
    downward = range(n, 0, -1)
    for signs in itertools.product(PLUS + MINUS, repeat=n):
        below_a_minus = False
        for k in downward:
            if signs[k - 1] == PLUS:
                m[k - 1] = 0
                continue
            a = bound(d, k, m) if below_a_minus else ell[k - 1]
            below_a_minus = True
            if a > 0:
                m[k - 1] = a
            elif a == 0:
                break
            else:
                sigma = "".join(signs)
                return UntwistResult(untwisted=False, sigma=sigma, k=k, m=compute_m(d, sigma))
    return UntwistResult(untwisted=True)


def maximal_failing_index(m: tuple[int, ...]) -> int:
    """The largest k with m[k] < 0, for the entries m of a Cartier vector;
    raises if m is nonnegative, and MalformedInput if m does not hold ints."""
    return _maximal_failing_index(require_ints("m", m))


def _maximal_failing_index(m: tuple[int, ...]) -> int:
    """maximal_failing_index on a tuple of ints."""
    for k in range(len(m), 0, -1):
        if m[k - 1] < 0:
            return k
    raise PreconditionViolated(f"m = {m} has no negative entry")


def witness_sigma_from_walk(d: TwistData, positions) -> tuple[str, CartierVector]:
    """Sign vector with minus exactly on a minimal hesitant lambda-walk, and
    its Cartier vector: walk_to_m, once the positions are checked to be
    ints (else MalformedInput)."""
    J = require_ints("positions", positions)
    m = walk_to_m(d, J)
    return minus_at(d.n, J), CartierVector(m)


def walk_to_m(d: TwistData, positions: tuple[int, ...]) -> tuple[int, ...]:
    """The entries of the Cartier vector of the sign vector with minus
    exactly on the positions of a minimal hesitant lambda-walk, a tuple of
    ints; the leading entry is guaranteed negative.

    The positions must form an increasing index sequence into d, and the
    minimality preconditions are re-checked against d at the level of the
    constants themselves (repetition entry >= 2, adjacent steps negative,
    non-consecutive walking pairs zero, interior ells zero); failures raise
    NotMinimalWitness.
    """
    J = positions
    if len(J) < 2 or not all(map(int.__lt__, J, J[1:])) or not (1 <= J[0] and J[-1] <= d.n):
        raise NotMinimalWitness(f"positions {J} are not an increasing index sequence")
    rows = d.rows

    def c(j: int, k: int) -> int:
        # 1 <= j < k <= n, as the sequence check above makes sure.
        return row_entry(rows[j - 1], k)

    s = len(J) - 1
    if c(J[0], J[1]) < 2:
        raise NotMinimalWitness(f"c[{J[0]}, {J[1]}] = {c(J[0], J[1])} < 2: no hesitation")
    if d.ell[J[-1] - 1] <= 0:
        raise NotMinimalWitness(f"ell[{J[-1]}] = {d.ell[J[-1] - 1]} is not positive")
    if s == 1:
        if d.ell[J[0] - 1] != d.ell[J[1] - 1]:
            raise NotMinimalWitness("length-2 walk needs equal ells at both positions")
    else:
        for t in range(1, s):
            if c(J[t], J[t + 1]) >= 0:
                raise NotMinimalWitness(f"walking step c[{J[t]}, {J[t + 1]}] not negative")
        for p in range(0, s):
            if d.ell[J[p] - 1] != 0:
                raise NotMinimalWitness(f"interior ell[{J[p]}] nonzero")
        for p in range(1, s + 1):
            for q in range(p + 2, s + 1):
                if c(J[p], J[q]) != 0:
                    raise NotMinimalWitness(f"walking pair c[{J[p]}, {J[q]}] nonzero")
        for q in range(2, s + 1):
            if c(J[0], J[q]) != c(J[1], J[q]):
                raise NotMinimalWitness(
                    f"hesitation inconsistency: c[{J[0]}, {J[q]}] != c[{J[1]}, {J[q]}]"
                )
    m = _compute_m(d, _minus_at(d.n, J))
    if m[J[0] - 1] >= 0:
        raise NotMinimalWitness(f"walk {J} gives m[{J[0]}] = {m[J[0] - 1]}, not negative")
    return m


def hesitant_walk_from_twist_witness(d: TwistData, w: Word, m: tuple[int, ...]) -> WalkWitness:
    """Rebuild a hesitant lambda-walk from the entries m of a failing Cartier
    vector: the positions of m_to_walk, with their letters read from w, once
    m is checked to hold ints (else MalformedInput) and w and m to have
    length d.n."""
    m = require_ints("m", m)
    if len(w) != d.n:
        raise DimensionMismatch(f"word has length {len(w)}, expected {d.n}")
    if len(m) != d.n:
        raise DimensionMismatch(f"m has length {len(m)}, expected {d.n}")
    return WalkWitness.from_word(w, m_to_walk(d, m))


def m_to_walk(d: TwistData, m: tuple[int, ...]) -> tuple[int, ...]:
    """The positions of a hesitant lambda-walk rebuilt from the entries m of
    a failing Cartier vector of d, a tuple of d.n ints.

    Starts at k = maximal_failing_index(m), so every later entry is
    nonnegative; repeats at the minimal later position with positive c-entry
    and positive m, then, while the current ell is zero, steps to the minimal
    later position with negative c-entry and positive m.
    """
    k = _maximal_failing_index(m)
    j = next((q for q, c in d.rows[k - 1] if c > 0 and m[q - 1] > 0), None)
    if j is None:
        raise PreconditionViolated(f"no repetition candidate after {k} (negative ell?)")
    positions = [k, j]
    while d.ell[j - 1] == 0:
        j = next((q for q, c in d.rows[j - 1] if c < 0 and m[q - 1] > 0), None)
        if j is None:
            raise PreconditionViolated(f"greedy extension stuck at {positions[-1]} (negative ell?)")
        positions.append(j)
    return tuple(positions)
