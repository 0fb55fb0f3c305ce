"""The Schur walk's live moves as the package built them before it built
them backward from the outer shape, and the strips the backward table read
before it built only those a live state reads.

_LiveMoves expands every diagram state forward: it lists the state's
one-cell moves and fermionic strips inside the outer shape, keeps those onto
live states, and marks a state dead when it keeps none.  Its strips come
from strip_oracle._strips, which shares no strip code with the package.  It
stays here as the oracle for the package's backward table,
_livetable._live_moves, which must hold the same live states with the same
moves in the same order.

_removals lists every strip whose removal from a star leaves a star holding
inner's, the one-cell ones apart, and files them all by the row their new
circle would end.  It stays here as the oracle for the package's builders,
_livetable._corners and _livetable._circle_strips, which build only the
strips the backward table reads."""

import functools
import operator
from itertools import product

import strip_oracle
from superqsym._livetable import _new_circle_row


@functools.cache
def _strips(star, rows, sizes, dotted, cap):
    """strip_oracle._strips, listed once per argument tuple for the life of
    the test process: a table expands each state once, but the differential
    tests build many tables over the same states."""
    return tuple(strip_oracle._strips(star, rows, sizes, dotted, cap))


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


class _LiveMoves(dict):
    """A walk's per-call table of the moves between live diagram states.

    A diagram state (star, rows) inside outer is live when outer can be
    reached from it.  Reading a state gives (cells, dotted): its one-cell
    moves, as (new star, new circle rows, row of the cell), and its
    fermionic strips, as (cell count, new star, new circle rows, index of the
    new circle among the circles from below), each in the order _strips
    lists them and keeping only the moves onto live states.  A state is live
    when it is outer, which has no moves, or keeps a move; a dead state reads
    as _DEAD.  Each state is expanded once, on its first read, and `expanded`
    lists the states in that order."""

    __slots__ = ("outer", "expanded")

    def __init__(self, outer):
        super().__init__({outer: ([], [])})
        self.outer, self.expanded = outer, []

    def __missing__(self, state):
        self.expanded.append(state)
        star, rows = state
        cap, most = self.outer[0], self.outer.degree - sum(star)
        cells = [
            (new, moved, strip[0][0])
            for new, moved, strip, _ in _strips(star, rows, range(1, 2), False, cap)
            if self[new, moved] is not _DEAD
        ]
        dotted = []
        if len(rows) < self.outer.n_circles:
            strips = _strips(star, rows, range(most + 1), True, cap)
            dotted = [
                (len(strip), new, moved, idx)
                for new, moved, strip, idx in strips
                if self[new, moved] is not _DEAD
            ]
        self[state] = moves = (cells, dotted) if cells or dotted else _DEAD
        return moves


def live_moves(outer, inner):
    """The oracle's table after a walk from inner: every state it expanded,
    outer included, mapped to its moves or to _DEAD."""
    table = _LiveMoves(outer)
    table[tuple(inner)]
    return table
