"""The Schur walks' per-call table of live moves, built backward from the
outer shape, and the row a fermionic strip's new circle ends, which the
forward strips of superschur read too.

A diagram is a pair (star, rows): the row lengths, longest first, and the
diagram rows of the circles listed from below.  A strip is a vector of the
cells it adds per row, with one entry for the empty row under the star."""

import operator
from itertools import product


def _new_circle_row(padded, add) -> int:
    """The row that the new circle of a fermionic strip `add` over the star
    `padded` (with its empty row) ends: the run of columns 1, 2, ... the
    strip fills is the run of rows, read bottom-up, each as long as the
    cells added below it."""
    value, row = 0, len(padded) + 1
    for here, a in zip(reversed(padded), reversed(add)):
        if here != value:
            break
        value += a
        row -= 1
    return row


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


def _origins(rows, add, under) -> list:
    """The circle rows, from below, of every diagram over the star `under`
    (with its empty row) whose circles the strip `add` moves to `rows`.  Each
    circle ends the topmost row of its length."""
    found = [()]
    for u in rows:
        here = []
        if u <= len(add) and not add[u - 1]:  # it stayed in a row with no cell
            here.append(u)
        if u > 1 and add[u - 2]:  # the cell in the row above pushed it down
            here.append(u - 1)
        here = [r for r in here if r == 1 or under[r - 2] > under[r - 1]]
        found = [o + (r,) for o in found for r in here]
    return found


def _live_moves(outer, inner) -> dict:
    """A walk's per-call table, built backward from outer, of the moves
    between live diagram states, those from which outer can be reached.  It
    maps outer to no moves, and each other live state whose star holds
    inner's, with at least inner's circles, to (cells, dotted): its moves onto
    live states, as (new star, new circle rows, row of the cell) and (cell
    count, new star, new circle rows, index of the new circle among the
    circles from below), both in the order superschur._strip_vectors lists
    the strips.  A skew table may hold live states that inner cannot reach;
    no walk enters them.

    A state taken off the stack finds its predecessors through its star's
    _removals: one cell, or, taking out one of its circles, a strip whose new
    circle ends that circle's row.  Each edge found is the predecessor's
    move.  A bosonic k-strip splits into k one-cell moves, so no chain of
    strips of any weight reaches outer from a state the table lacks."""
    inner_star, least = inner[0], inner.n_circles
    stars: dict = {}
    table = {outer: ([], [])}
    stack = [outer]
    while stack:
        star, rows = stack.pop()
        if star not in stars:
            stars[star] = _removals(star, inner_star)
        cells, by_row = stars[star]
        edges = [(0, rows, *strip[:3], (star, rows, strip[3])) for strip in cells]
        for idx, u in enumerate(rows if len(rows) > least else ()):
            rest = rows[:idx] + rows[idx + 1 :]
            edges += [(1, rest, *s[:3], (s[3], star, rows, idx)) for s in by_row.get(u, ())]
        for kind, rest, old, under, add, move in edges:
            for origin in _origins(rest, add, under):
                moves = table.get((old, origin))
                if moves is None:
                    moves = table[old, origin] = ([], [])
                    stack.append((old, origin))
                moves[kind].append((add, move))
    for moves in table.values():
        for found in moves:
            found.sort(key=operator.itemgetter(0))
            found[:] = [move for _, move in found]
    return table
