"""Diagram walks, hesitant lambda-walks, avoidance detection, and minimization.

The detector, the hesitancy predicate and minimization are kernels over a
Cartan table, a word's letters and a weight's coefficients, which the
caller has checked against one another; the public functions check their
arguments and call them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IndexOutOfRange, NotAWitness, NotMinimalWitness, require_ints
from .rootdata import LieType, cartan_table
from .weightword import DominantWeight, Word, appears_in_lambda


@dataclass(frozen=True)
class WalkWitness:
    """An increasing index sequence into a word, with the subword it selects.
    Both are stored as tuples of ints; anything else raises MalformedInput."""

    positions: tuple[int, ...]
    subword: tuple[int, ...]

    def __init__(self, positions, subword):
        positions = require_ints("positions", positions)
        subword = require_ints("subword", subword)
        if not all(map(int.__lt__, positions, positions[1:])):
            raise NotAWitness(f"positions {positions} not strictly increasing")
        if len(positions) != len(subword):
            raise NotAWitness("positions and subword lengths disagree")
        vars(self).update(positions=positions, subword=subword)

    @classmethod
    def from_word(cls, w: Word, positions) -> "WalkWitness":
        positions = require_ints("positions", positions)
        if positions and not (1 <= min(positions) and max(positions) <= len(w)):
            raise IndexOutOfRange(f"positions {positions} outside [1, {len(w)}]")
        letters = w.entries
        return cls(positions, tuple([letters[p - 1] for p in positions]))


def is_diagram_walk(t: LieType, w: Word) -> bool:
    """Nonempty word whose successive roots are distinct and diagram-adjacent."""
    w.validate_for(t)
    if len(w) < 2:
        return len(w) == 1
    return _adjacent_in_turn(cartan_table(t), w.entries)


def _adjacent_in_turn(table, letters: tuple[int, ...]) -> bool:
    """Whether successive letters, already checked against the type of the
    Cartan table, are diagram-adjacent."""
    # Diagram-adjacent means a negative off-diagonal Cartan entry; the
    # diagonal is 2, so a repeated letter is never adjacent to itself.
    for a, b in zip(letters, letters[1:]):
        if table[a - 1][b - 1] >= 0:
            return False
    return True


def is_lambda_walk(t: LieType, w: Word, lam: DominantWeight) -> bool:
    """A diagram walk whose final root appears in lam."""
    lam.validate_for(t)
    return is_diagram_walk(t, w) and appears_in_lambda(lam, w.entries[-1])


def is_hesitant_lambda_walk(t: LieType, w: Word, lam: DominantWeight) -> bool:
    """First two letters equal, and the walking component (all but the first
    letter) is a lambda-walk."""
    return hesitant(_checked_table(t, w, lam), w.entries, lam.coefficients)


def hesitant(table, letters: tuple[int, ...], coefficients: tuple[int, ...]) -> bool:
    """is_hesitant_lambda_walk as a kernel: on letters already checked
    against the type of the Cartan table, for a weight of its rank."""
    if len(letters) < 2 or letters[0] != letters[1]:
        return False
    # The walking component is a nonempty slice of the letters, so it is a
    # diagram walk when its letters are adjacent.
    walking = letters[1:]
    return _adjacent_in_turn(table, walking) and coefficients[walking[-1] - 1] > 0


def find_hesitant_lambda_walk(t: LieType, w: Word, lam: DominantWeight) -> WalkWitness | None:
    """Canonical hesitant-lambda-walk subword, or None if w is avoiding:
    hesitant_walk, once lam's rank and w's letters are checked."""
    walk = hesitant_walk(_checked_table(t, w, lam), w.entries, lam.coefficients)
    return None if walk is None else WalkWitness(*walk)


def hesitant_walk(table, letters: tuple[int, ...], coefficients: tuple[int, ...]):
    """The canonical hesitant-lambda-walk subword of the word with these
    letters, as its positions and its letters, or None if the word avoids
    them.  table is the Cartan table of the word's type, coefficients those
    of a weight of its rank, and every letter lies in [1, rank]; the caller
    checks these.

    One O(n·r) pass from position n down: ``later`` holds each letter's
    smallest later position that starts a lambda-walk (its root is in lam,
    or it ``link``s to the smallest such position of an adjacent letter).
    The last p whose letter is in ``later`` gives the lexicographically
    smallest hesitation pair; ``link`` then gives the greedy minimal-index
    extension up to a root in lam.
    """
    # Adjacency is a negative table entry.
    later: dict[int, int] = {}
    link: dict[int, int] = {}
    pair = None
    for p in range(len(letters), 0, -1):
        a = letters[p - 1]
        if a in later:
            pair = (p, later[a])
        if coefficients[a - 1] > 0:
            later[a] = p
            continue
        row = table[a - 1]
        step = None
        for b, q in later.items():
            if row[b - 1] < 0 and (step is None or q < step):
                step = q
        if step is not None:
            later[a] = p
            link[p] = step
    if pair is None:
        return None
    positions = list(pair)
    while positions[-1] in link:
        positions.append(link[positions[-1]])
    return tuple(positions), tuple([letters[p - 1] for p in positions])


def _checked_table(t: LieType, w: Word, lam: DominantWeight):
    """The Cartan table of t, once lam has t's rank and w's letters lie in
    [1, t.rank]; after this every letter indexes both."""
    lam.validate_for(t)
    w.validate_for(t)
    return cartan_table(t)


def _require_hesitant(table, letters: tuple[int, ...], coefficients: tuple[int, ...]) -> None:
    """NotAWitness unless the letters, checked as for hesitant, are a
    hesitant lambda-walk."""
    if not hesitant(table, letters, coefficients):
        raise NotAWitness(f"subword {letters} is not a hesitant lambda-walk")


def _minimal(letters: tuple[int, ...], coefficients: tuple[int, ...]) -> bool:
    """Minimality of the hesitant lambda-walk with these letters."""
    walking = letters[1:]
    if len(set(walking)) != len(walking):
        return False
    return len(walking) < 2 or not any(coefficients[i - 1] > 0 for i in letters[:-1])


def is_minimal(t: LieType, witness: WalkWitness, lam: DominantWeight) -> bool:
    """Minimality of a hesitant lambda-walk: the walking component visits each
    diagram vertex at most once, and (when it has length >= 2) only its final
    root appears in lam."""
    table = _checked_table(t, Word(witness.subword), lam)
    _require_hesitant(table, witness.subword, lam.coefficients)
    return _minimal(witness.subword, lam.coefficients)


def minimize(t: LieType, witness: WalkWitness, lam: DominantWeight) -> WalkWitness:
    """Extract a minimal hesitant lambda-walk subword of the given witness:
    minimal_walk, once lam's rank and the witness's letters are checked."""
    table = _checked_table(t, Word(witness.subword), lam)
    return WalkWitness(*minimal_walk(table, witness.positions, witness.subword, lam.coefficients))


def minimal_walk(
    table, positions: tuple[int, ...], letters: tuple[int, ...], coefficients: tuple[int, ...]
):
    """The positions and letters of a minimal hesitant lambda-walk inside the
    walk with these positions and letters, whose letters are checked as for
    hesitant_walk.  NotAWitness unless the walk is a hesitant lambda-walk,
    and NotMinimalWitness unless the result is a minimal one.

    One pass erases the loops of the walking component up to its first root
    in lam: a root already kept cuts the kept walk back to that visit, so
    each kept root is the visit right after the last visit to the root kept
    before it.
    """
    _require_hesitant(table, letters, coefficients)
    kept: list[tuple[int, int]] = []
    # letter -> its index in kept.  kept is a path in the diagram, a tree, so
    # that index is the letter's distance from the first kept root at every
    # visit, and kept holds the letter exactly when it is below len(kept).
    index: dict[int, int] = {}
    for p, letter in zip(positions[1:], letters[1:]):
        i = index.setdefault(letter, len(kept))
        if i < len(kept):
            del kept[i + 1 :]
            continue
        kept.append((p, letter))
        if coefficients[letter - 1] > 0:
            break
    out_positions, out_letters = zip((positions[0], letters[0]), *kept)
    _require_hesitant(table, out_letters, coefficients)
    if not _minimal(out_letters, coefficients):
        raise NotMinimalWitness(f"minimizing {positions} left non-minimal {out_positions}")
    return out_positions, out_letters
