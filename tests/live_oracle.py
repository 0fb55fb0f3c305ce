"""The Schur walk's live moves as the package built them before it built
them backward from the outer shape, and the strips the backward table read
before it built only those a live state reads.

_LiveMoves expands every diagram state forward: it lists the state's
one-cell moves (_cells over its star's corners) and fermionic strips
(superschur._strips over its star's vectors), keeps those onto live states,
and marks a state dead when it keeps none.  It stays here as the oracle for
the package's backward table, _livetable._live_moves, which must hold the
same live states with the same moves in the same order.

_removals lists every strip whose removal from a star leaves a star holding
inner's, the one-cell ones apart, and files them all by the row their new
circle would end.  It stays here as the oracle for the package's builders,
_livetable._corners and _livetable._circle_strips, which build only the
strips the backward table reads."""

import functools
import operator
from itertools import product

from superqsym._livetable import _new_circle_row
from superqsym.superschur import _strip_vectors, _strips


def _removals(star, inner):
    """The strips whose removal from `star` leaves a star holding `inner`, as
    (old star, old star with its empty row, the strip's vector over that,
    cell count): the one-cell strips, with the row of the cell in place of
    the count, and all strips by the row their new circle would end."""
    padded = star + (0,)
    low = inner + (0,) * (len(star) - len(inner))
    cells, by_row = [], {}
    for old in product(*map(range, map(max, padded[1:], low), [v + 1 for v in star])):
        under = (old[:-1] if old and not old[-1] else old) + (0,)
        add = tuple(map(operator.sub, padded, under))
        size = sum(add)
        by_row.setdefault(_new_circle_row(under, add), []).append((under[:-1], under, add, size))
        if size == 1:
            cells.append((under[:-1], under, add, add.index(1) + 1))
    return cells, by_row


# the moves of a dead diagram state, one object for all of them
_DEAD = ((), ())


def _star_moves(star, cap, most: int):
    """The star-only stage of every move: (corners, vectors), the star's
    _strip_vectors of at most `most` cells under `cap`, and the one-cell ones
    among them as (new star, row of the cell), bottom row first."""
    vectors = _strip_vectors(star, most, cap)
    corners = [(new, add.index(1) + 1) for size, new, add, _ in vectors if size == 1]
    return corners, vectors


def _cells(corners, rows):
    """The circle stage of the one-cell strips: the corners of a star, from
    _star_moves, that stay legal over the diagram (star, rows), as (new star,
    new circle rows, row of the cell).  A cell fails when it pushes a circle
    onto the circle in the row below."""
    for new, row in corners:
        if row in rows:
            if row + 1 in rows:
                continue
            moved = tuple([row + 1 if r == row else r for r in rows])
        else:
            moved = rows
        yield new, moved, row


class _LiveMoves(dict):
    """A walk's per-call table of the moves between live diagram states.

    A diagram state (star, rows) inside outer is live when outer can be
    reached from it.  Reading a state gives (cells, dotted): its one-cell
    moves, as _cells gives them, and its fermionic strips, as _strips gives
    them, keeping only the moves onto live states.  A state is live when it
    is outer, which has no moves, or keeps a move; a dead state reads as
    _DEAD.  Each state is expanded once, on its first read, and `expanded`
    lists the states in that order."""

    __slots__ = ("outer", "stars", "expanded")

    def __init__(self, outer):
        super().__init__({outer: ([], [])})
        cap, degree = outer[0], outer.degree
        self.outer, self.expanded = outer, []
        self.stars = functools.cache(
            lambda star: _star_moves(star, cap, degree - sum(star))
        )

    def __missing__(self, state):
        self.expanded.append(state)
        star, rows = state
        corners, vectors = self.stars(star)
        cells = [m for m in _cells(corners, rows) if self[m[:2]] is not _DEAD]
        dotted = []
        if len(rows) < self.outer.n_circles:
            strips = _strips(vectors, rows, True)
            dotted = [m for m in strips if self[m[1:3]] is not _DEAD]
        self[state] = moves = (cells, dotted) if cells or dotted else _DEAD
        return moves


def live_moves(outer, inner):
    """The oracle's table after a walk from inner: every state it expanded,
    outer included, mapped to its moves or to _DEAD."""
    table = _LiveMoves(outer)
    table[tuple(inner)]
    return table
