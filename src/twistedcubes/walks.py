"""Diagram walks, hesitant lambda-walks, avoidance detection, and minimization."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IndexOutOfRange, NotAWitness, NotMinimalWitness
from .rootdata import LieType, cartan_table
from .weightword import DominantWeight, Word, appears_in_lambda


@dataclass(frozen=True)
class WalkWitness:
    """An increasing index sequence into a word, with the subword it selects."""

    positions: tuple[int, ...]
    subword: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "positions", tuple(self.positions))
        object.__setattr__(self, "subword", tuple(self.subword))
        if list(self.positions) != sorted(set(self.positions)):
            raise NotAWitness(f"positions {self.positions} not strictly increasing")
        if len(self.positions) != len(self.subword):
            raise NotAWitness("positions and subword lengths disagree")

    @classmethod
    def from_word(cls, w: Word, positions) -> "WalkWitness":
        positions = tuple(positions)
        if not all(1 <= p <= len(w) for p in positions):
            raise IndexOutOfRange(f"positions {positions} outside [1, {len(w)}]")
        return cls(positions, tuple(w.entries[p - 1] for p in positions))


def is_diagram_walk(t: LieType, w: Word) -> bool:
    """Nonempty word whose successive roots are distinct and diagram-adjacent."""
    w.validate_for(t)
    if len(w) < 2:
        return len(w) == 1
    return _adjacent_in_turn(t, w.entries)


def _adjacent_in_turn(t: LieType, letters: tuple[int, ...]) -> bool:
    """Whether successive letters, already checked against t, are
    diagram-adjacent."""
    # Diagram-adjacent means a negative off-diagonal Cartan entry; the
    # diagonal is 2, so a repeated letter is never adjacent to itself.
    table = cartan_table(t)
    return all(table[a - 1][b - 1] < 0 for a, b in zip(letters, letters[1:]))


def _require_rank(t: LieType, lam: DominantWeight) -> None:
    if lam.rank != t.rank:
        raise NotAWitness(f"weight rank {lam.rank} does not match {t}")


def is_lambda_walk(t: LieType, w: Word, lam: DominantWeight) -> bool:
    """A diagram walk whose final root appears in lam."""
    _require_rank(t, lam)
    return is_diagram_walk(t, w) and appears_in_lambda(lam, w.entries[-1])


def is_hesitant_lambda_walk(t: LieType, w: Word, lam: DominantWeight) -> bool:
    """First two letters equal, and the walking component (all but the first
    letter) is a lambda-walk."""
    _require_rank(t, lam)
    w.validate_for(t)
    if len(w) < 2 or w.entries[0] != w.entries[1]:
        return False
    # The walking component is a nonempty slice of w, whose letters are
    # checked above, so it is a diagram walk when its letters are adjacent.
    walking = w.entries[1:]
    return _adjacent_in_turn(t, walking) and appears_in_lambda(lam, walking[-1])


def find_hesitant_lambda_walk(t: LieType, w: Word, lam: DominantWeight) -> WalkWitness | None:
    """Canonical hesitant-lambda-walk subword, or None if w is avoiding.

    One O(n·r) pass from position n down: ``later`` holds each letter's
    smallest later position that starts a lambda-walk (its root is in lam,
    or it ``link``s to the smallest such position of an adjacent letter).
    The last p whose letter is in ``later`` gives the lexicographically
    smallest hesitation pair; ``link`` then gives the greedy minimal-index
    extension up to a root in lam.
    """
    _require_rank(t, lam)
    w.validate_for(t)
    letters = w.entries
    # The letters and the rank are checked above, so the Cartan table and the
    # weight are read directly; adjacency is a negative table entry.
    table = cartan_table(t)
    later: dict[int, int] = {}
    link: dict[int, int] = {}
    pair = None
    for p in range(len(letters), 0, -1):
        a = letters[p - 1]
        if a in later:
            pair = (p, later[a])
        if lam.coefficients[a - 1] > 0:
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
    return WalkWitness.from_word(w, positions)


def _require_hesitant(t: LieType, witness: WalkWitness, lam: DominantWeight) -> None:
    """NotAWitness unless the witness's subword is a hesitant lambda-walk of t
    and lam has t's rank; after this every letter indexes lam directly."""
    if not is_hesitant_lambda_walk(t, Word(witness.subword), lam):
        raise NotAWitness(f"subword {witness.subword} is not a hesitant lambda-walk")


def is_minimal(t: LieType, witness: WalkWitness, lam: DominantWeight) -> bool:
    """Minimality of a hesitant lambda-walk: the walking component visits each
    diagram vertex at most once, and (when it has length >= 2) only its final
    root appears in lam."""
    _require_hesitant(t, witness, lam)
    walking = witness.subword[1:]
    if len(set(walking)) != len(walking):
        return False
    coeffs = lam.coefficients
    if len(walking) >= 2 and any(coeffs[i - 1] > 0 for i in witness.subword[:-1]):
        return False
    return True


def minimize(t: LieType, witness: WalkWitness, lam: DominantWeight) -> WalkWitness:
    """Extract a minimal hesitant lambda-walk subword of the given witness.

    One pass erases the loops of the walking component up to its first root
    in lam: a root already kept cuts the kept walk back to that visit, so
    each kept root is the visit right after the last visit to the root kept
    before it.
    """
    _require_hesitant(t, witness, lam)
    kept: list[tuple[int, int]] = []
    # letter -> its index in kept.  kept is a path in the diagram, a tree, so
    # that index is the letter's distance from the first kept root at every
    # visit, and kept holds the letter exactly when it is below len(kept).
    index: dict[int, int] = {}
    for p, letter in zip(witness.positions[1:], witness.subword[1:]):
        i = index.setdefault(letter, len(kept))
        if i < len(kept):
            del kept[i + 1 :]
            continue
        kept.append((p, letter))
        if lam.coefficients[letter - 1] > 0:
            break
    positions, subword = zip((witness.positions[0], witness.subword[0]), *kept)
    out = WalkWitness(positions, subword)
    if not is_minimal(t, out, lam):
        raise NotMinimalWitness(f"minimizing {witness.positions} left non-minimal {positions}")
    return out
