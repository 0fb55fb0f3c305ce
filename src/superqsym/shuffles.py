"""Path-on-grid shuffle engines.

Overlapping shuffles walk an l(beta) x l(alpha) grid labeled by the parts
themselves and drive the M-product.  Fundamental paths walk a grid labeled by
dotted permutations representing alpha and beta, admit multi-cell diagonal
steps, and drive the L-product.  Both walk one table of the moves each grid
point allows, which carries each move's sign bit; an engine supplies only its
diagonal moves.

The walks read a grid label as its rank, the int a DottedPart is: a plain
label is odd and a dotted one even, plain labels compare by rank as by
value, and a fused label is built from ranks, a + b - 3 for an M diagonal
over labels a and b that are not both dotted and a + 2*k for a dotted label
a crossed with k plain ones, and read from the part table.
"""

from __future__ import annotations

from itertools import accumulate
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional

from .composition import _PARTS, DottedComposition, DottedPart, _coerce_part, _memo


class DottedPermutation(tuple):
    """A word of DottedParts whose non-dotted entries are pairwise distinct
    positive integers; entries are read as composition parts are.

    Dotted values may repeat: grid words like [d1,d1] occur in products and
    their contributions cancel in signed sums.
    """

    __slots__ = ()

    def __new__(cls, entries: Iterable):
        self = tuple.__new__(cls, (_coerce_part(e) for e in entries))
        nondotted = self.undotted()
        if len(set(nondotted)) != len(nondotted):
            raise ValueError("non-dotted entries must be pairwise distinct")
        return self

    # wraps a word the package built from valid entries with distinct
    # non-dotted values, without re-reading them
    _of = classmethod(tuple.__new__)

    @property
    def entries(self) -> tuple[DottedPart, ...]:
        return tuple(self)

    def __repr__(self) -> str:
        return "[" + ",".join(str(e) for e in self) + "]"

    @property
    def size(self) -> int:
        return len(self)

    def undotted(self) -> tuple[int, ...]:
        return tuple(e.value for e in self if not e.dotted)


def word(*entries) -> DottedPermutation:
    """Shorthand: word(6, "d3", 9) == [6,d3,9]."""
    return DottedPermutation(entries)


def comp_of_word(w: DottedPermutation) -> DottedComposition:
    """Descent composition of a dotted permutation: a run of non-dotted
    entries ends at a dotted entry or at a strict descent; each dotted entry
    is a part of its own."""
    parts: list[DottedPart] = []
    run = prev = 0
    for e in w:
        if run and (e.dotted or e.value < prev):
            parts.append(DottedPart(run, False))
            run = 0
        if e.dotted:
            parts.append(e)
        else:
            run += 1
            prev = e.value
    if run:
        parts.append(DottedPart(run, False))
    return DottedComposition._of(tuple(parts))


def represent(alpha: DottedComposition, start: int = 1) -> DottedPermutation:
    """A canonical w with comp(w) = alpha on values start, start+1, ...

    Within a maximal block of consecutive non-dotted parts, runs are filled
    right-to-left with the smallest fresh values, making every internal part
    boundary a strict descent; dotted parts become dotted entries verbatim.
    """
    if start < 1:
        raise ValueError(f"non-dotted values must be >= 1, got start {start}")
    entries: list[DottedPart] = []
    cursor = start
    i = 0
    while i < len(alpha):
        if alpha[i].dotted:
            entries.append(alpha[i])
            i += 1
            continue
        j = i
        while j < len(alpha) and not alpha[j].dotted:
            j += 1
        block = alpha[i:j]
        cursor += sum(p.value for p in block)
        top = cursor
        for p in block:
            top -= p.value
            # the plain letters top, ..., top + p.value - 1, by rank
            ranks = range(2 * top + 3, 2 * (top + p.value) + 3, 2)
            entries.extend(map(_PARTS.__getitem__, ranks))
        i = j
    # the values are fresh and distinct by construction
    return DottedPermutation._of(tuple(entries))


# ---------------------------------------------------------------------------
# the grid walk both engines share

# step encodings: ("H",), ("V",), ("D",) the M product's unit diagonal,
# ("D3", k) column-diagonal over k rows, ("D4", k) row-diagonal over k columns
Step = tuple


def _moves(cols, rows, diagonals) -> list[list[list]]:
    """The move table of a grid: table[x][y] lists the moves leaving (x, y)
    as (step, entry, x', y', flip, end), in the order H, V, then the
    diagonals, which diagonals(cols, rows) lists as (step, entry, x, y, x', y').

    A path's sign is (-1)^(doubly-dotted cells strictly below it): a move
    leaving height y adds the below[y] dotted rows at or below y per dotted
    column it crosses, and flip is that count's parity.  end marks a move
    onto the far corner.  Only the empty grid has no move at (0, 0)."""
    w, h = len(cols), len(rows)
    # ~e & 1 is 1 for a dotted label, whose rank is even
    below = list(accumulate((~e & 1 for e in rows), initial=0))
    dotted = list(accumulate((~e & 1 for e in cols), initial=0))
    table = []
    for x in range(w + 1):
        column = []
        for y in range(h + 1):
            column.append(cell := [])
            if x < w:
                flip = below[y] & ~cols[x] & 1
                cell.append((("H",), cols[x], x + 1, y, flip, x + 1 == w and y == h))
            if y < h:
                cell.append((("V",), rows[y], x, y + 1, 0, x == w and y + 1 == h))
        table.append(column)
    for step, entry, x, y, x2, y2 in diagonals(cols, rows):
        flip = below[y] * (dotted[x2] - dotted[x]) & 1
        table[x][y].append((step, entry, x2, y2, flip, x2 == w and y2 == h))
    return table


def _walk(cols, rows, diagonals, leaf) -> list:
    """The values leaf(steps, entries, sign) of every path from (0, 0) to
    the far corner, in the order of the move table.  steps and entries are
    the walk's own lists, so a leaf copies what it keeps."""
    table = _moves(cols, rows, diagonals)
    steps: list[Step] = []
    entries: list[DottedPart] = []
    out = [] if table[0][0] else [leaf(steps, entries, 1)]

    def go(x: int, y: int, odd: int):
        for step, entry, x2, y2, flip, end in table[x][y]:
            steps.append(step)
            entries.append(entry)
            if end:
                out.append(leaf(steps, entries, -1 if odd ^ flip else 1))
            else:
                go(x2, y2, odd ^ flip)
            entries.pop()
            steps.pop()

    go(0, 0, 0)
    del go  # go reaches itself through its closure: free the walk now
    return out


# ---------------------------------------------------------------------------
# overlapping shuffles (M-product engine)


def _overlap_diagonals(cols, rows):
    # one cell, whose labels may not both be dotted: one is plain, so odd
    return [
        (("D",), _PARTS[a + b - 3], x, y, x + 1, y + 1)
        for x, a in enumerate(cols)
        for y, b in enumerate(rows)
        if (a | b) & 1
    ]


@_memo
def overlapping_shuffles(
    alpha: DottedComposition, beta: DottedComposition
) -> tuple[tuple[DottedComposition, int], ...]:
    """All lattice paths with unit H/V/diagonal steps on the parts grid;
    diagonals may not cross doubly-dotted cells; one (gamma, sign) per path.
    Memoized per pair."""
    if not (alpha and beta):
        # the one path runs along one side of the grid, below no dotted cell
        return ((alpha or beta, 1),)
    table = _moves(alpha, beta, _overlap_diagonals)
    out = []
    entries = []

    def go(x: int, y: int, odd: int):
        for _, entry, x2, y2, flip, end in table[x][y]:
            entries.append(entry)
            if end:
                out.append((DottedComposition._of(entries), -1 if odd ^ flip else 1))
            else:
                go(x2, y2, odd ^ flip)
            entries.pop()

    go(0, 0, 0)
    del go  # go reaches itself through its closure: free the walk now
    return tuple(out)


# ---------------------------------------------------------------------------
# fundamental paths (L-product engine)


class GridPath(NamedTuple):
    steps: tuple[Step, ...]

    def to_json(self) -> list[list]:
        return [list(s) for s in self.steps]


class PathResult(NamedTuple):
    path: GridPath
    word: DottedPermutation
    gamma: DottedComposition
    sign: int


def _rising(labels, i: int):
    """k = 1, 2, ... while labels[i:i+k] are non-dotted and rise."""
    prev = 0
    for k, e in enumerate(labels[i:], start=1):
        if not e & 1 or e <= prev:
            return
        prev = e
        yield k


def _fundamental_diagonals(cols, rows):
    # type (3): dotted column label, k rows with increasing non-dotted labels;
    # type (4): dotted row label, k columns with increasing non-dotted labels
    return [
        (("D3", k), _PARTS[a + 2 * k], x, y, x + 1, y + k)
        for x, a in enumerate(cols)
        if not a & 1
        for y in range(len(rows))
        for k in _rising(rows, y)
    ] + [
        (("D4", k), _PARTS[b + 2 * k], x, y, x + k, y + 1)
        for y, b in enumerate(rows)
        if not b & 1
        for x in range(len(cols))
        for k in _rising(cols, x)
    ]


def path_word(
    w_alpha: DottedPermutation, w_beta: DottedPermutation, steps: Iterable[Step]
) -> DottedPermutation:
    """Pi(P): the dotted permutation a fundamental path spells out.  A step
    that no fundamental path takes from where the path stands, and a path
    that stops short of the grid corner, raise ValueError."""
    table = _moves(w_alpha, w_beta, _fundamental_diagonals)
    x = y = 0
    out: list[DottedPart] = []
    for step in steps:
        key = tuple(step)
        move = next((m for m in table[x][y] if m[0] == key), None)
        if move is None:
            raise ValueError(f"no fundamental path takes step {step!r} at ({x}, {y})")
        _, entry, x, y, _, _ = move
        out.append(entry)
    if table[x][y]:
        raise ValueError("path does not end at the grid corner")
    return DottedPermutation(out)


def fundamental_paths(
    alpha: DottedComposition,
    beta: DottedComposition,
    w_alpha: Optional[DottedPermutation] = None,
    w_beta: Optional[DottedPermutation] = None,
) -> list[PathResult]:
    """All fundamental paths in the (alpha, beta)-grid with their words,
    descent compositions and signs.  Custom representatives may be supplied;
    each must represent its composition, and the resulting multiset of
    (gamma, sign) does not depend on them.  A default representative takes
    values above those of the other word."""
    if w_alpha is not None and comp_of_word(w_alpha) != alpha:
        raise ValueError(f"{w_alpha!r} does not represent {alpha!r}")
    if w_beta is not None and comp_of_word(w_beta) != beta:
        raise ValueError(f"{w_beta!r} does not represent {beta!r}")
    if w_alpha is None:
        w_alpha = represent(alpha, 1 if w_beta is None else _above(w_beta))
    if w_beta is None:
        w_beta = represent(beta, _above(w_alpha))
    # a path word takes its non-dotted entries from the two words, so checking
    # their concatenation once covers every path word built below
    DottedPermutation(w_alpha + w_beta)
    return _walk(w_alpha, w_beta, _fundamental_diagonals, _path_result)


def _above(w: DottedPermutation) -> int:
    """The least value above every non-dotted entry of w."""
    return max(w.undotted(), default=0) + 1


def _path_result(steps, entries, sign) -> PathResult:
    pw = DottedPermutation._of(tuple(entries))
    return PathResult(GridPath(tuple(steps)), pw, comp_of_word(pw), sign)


@_memo
def fundamental_product(
    alpha: DottedComposition, beta: DottedComposition
) -> tuple[tuple[DottedComposition, int], ...]:
    """L_alpha L_beta as (gamma, coefficient) pairs: the signs of the
    fundamental paths summed per descent composition, zeros dropped.

    One walk over the move table of fundamental_paths' default grid, which
    reads gamma as comp_of_word does while it steps: the parts closed so
    far, and the length and last label of the open non-dotted run.  No path
    is built.  Memoized per pair."""
    if not (alpha and beta):
        # the one path runs along one side of the grid, below no dotted cell
        return ((alpha or beta, 1),)
    w_alpha = represent(alpha, 1)
    w_beta = represent(beta, _above(w_alpha))
    table = _moves(w_alpha, w_beta, _fundamental_diagonals)
    # each closed run by list index, a twentieth of a DottedPart call
    runs = [DottedPart(k, False) for k in range(len(w_alpha) + len(w_beta) + 1)]
    acc: dict[DottedComposition, int] = {}

    def go(x: int, y: int, odd: int, parts: tuple, run: int, last: int):
        for _, entry, x2, y2, flip, end in table[x][y]:
            if not entry & 1:
                # a dotted label closes the open run and is a part of its own
                closed, run2, entry = parts + (runs[run], entry) if run else parts + (entry,), 0, 0
            elif entry < last:
                # a strict descent closes the run and opens the next
                closed, run2 = parts + (runs[run],), 1
            else:
                closed, run2 = parts, run + 1
            if end:
                gamma = DottedComposition._of(closed + (runs[run2],) if run2 else closed)
                acc[gamma] = acc.get(gamma, 0) + (-1 if odd ^ flip else 1)
            else:
                # the run's last label, 0 after a dotted one
                go(x2, y2, odd ^ flip, closed, run2, entry)

    go(0, 0, 0, (), 0, 0)
    del go  # go reaches itself through its closure: free the walk now
    # the pairs whose coefficient is not 0, in walk order, read in C
    return tuple(filter(itemgetter(1), acc.items()))
