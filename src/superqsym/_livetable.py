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


def _corners(star, inner):
    """The one-cell strips whose removal from `star` leaves a star holding
    `inner`, as (old star, old star with its empty row, the strip's vector
    over that, row of the cell)."""
    padded = star + (0,)
    low = inner + (0,) * (len(star) - len(inner))
    found = []
    for j, v in enumerate(star):
        if v > padded[j + 1] and v > low[j]:
            # a last row of one cell empties, and the old star loses it
            under = padded[:j] + (v - 1,) + padded[j + 1 : -1 if v == 1 else None]
            add = (0,) * j + (1,) + (0,) * (len(under) - j - 1)
            found.append((under[:-1], under, add, j + 1))
    return found


def _circle_strips(star, inner, u):
    """The strips whose removal from `star` leaves a star holding `inner` and
    whose new circle ends row u, as (old star, old star with its empty row,
    the strip's vector over that, cell count).  By _new_circle_row, each old
    row from row u down is as long as the new row below it, old row u-1 is
    longer than new row u, and the rows above are free between the new row
    below and their own length."""
    padded = star + (0,)
    low = inner + (0,) * (len(star) - len(inner))
    # old rows u, u+1, ... and the empty row under them; when u is the new
    # star's empty row, the old star keeps all its rows
    tail = padded[u:] or (0,)
    if any(map(operator.lt, tail, low[u - 1 :])):
        return []
    room = [range(max(padded[j + 1], low[j]), v + 1) for j, v in enumerate(star[: u - 1])]
    if u > 1:
        room[-1] = range(max(padded[u - 1] + 1, low[u - 2]), star[u - 2] + 1)
    found = []
    for head in product(*room):
        under = head + tail
        add = tuple(map(operator.sub, padded, under))
        found.append((under[:-1], under, add, sum(add)))
    return found


def _origins(rows, add, under):
    """The circle rows, from below, of every diagram over the star `under`
    (with its empty row) whose circles the strip `add` moves to `rows`.  Each
    circle ends the topmost row of its length."""
    choices = []
    for u in rows:
        here = []
        # it stayed in a row with no cell
        if u <= len(add) and not add[u - 1] and (u == 1 or under[u - 2] > under[u - 1]):
            here.append(u)
        # the cell in the row above pushed it down
        if u > 1 and add[u - 2] and (u == 2 or under[u - 3] > under[u - 2]):
            here.append(u - 1)
        if not here:
            return ()
        choices.append(here)
    return product(*choices)


def _live_moves(outer, inner) -> dict:
    """A walk's per-call table, built backward from outer, of the moves
    between live diagram states, those from which outer can be reached.
    superschur.schur_to_L reads its moves from it, and the tableau listings'
    walk, superschur._walk, reads every step from it.  It
    maps outer to no moves, and each other live state whose star holds
    inner's, with at least inner's circles, to (cells, dotted): its moves onto
    live states, as (new star, new circle rows, row of the cell) and (cell
    count, new star, new circle rows, index of the new circle among the
    circles from below), both in the order superschur._strip_vectors lists
    the strips, which is the order of their new stars.  A skew table may
    hold live states that inner cannot reach; no walk enters them.

    A state taken off the stack finds its predecessors through its star's
    _corners, and, taking out one of its circles, through the _circle_strips
    whose new circle ends that circle's row; each is built once per call.
    Each edge found is the predecessor's move.  A bosonic k-strip splits into
    k one-cell moves, so no chain of strips of any weight reaches outer from
    a state the table lacks."""
    inner_star, least = inner[0], inner.n_circles
    # the call's builds: _corners by star, _circle_strips by (star, row)
    corners, strips = {}, {}
    table = {outer: ([], [])}
    stack = [outer]
    while stack:
        star, rows = stack.pop()
        found = corners.get(star)
        if found is None:
            found = corners[star] = _corners(star, inner_star)
        groups = [(0, rows, found, None)]
        for idx, u in enumerate(rows if len(rows) > least else ()):
            found = strips.get((star, u))
            if found is None:
                found = strips[star, u] = _circle_strips(star, inner_star, u)
            groups.append((1, rows[:idx] + rows[idx + 1 :], found, idx))
        for kind, rest, found, idx in groups:
            for old, under, add, n in found:
                move = (n, star, rows, idx) if kind else (star, rows, n)
                for origin in _origins(rest, add, under):
                    moves = table.get((old, origin))
                    if moves is None:
                        moves = table[old, origin] = ([], [])
                        stack.append((old, origin))
                    moves[kind].append(move)
    for cells, dotted in table.values():
        if len(cells) > 1:
            cells.sort()
        if len(dotted) > 1:
            dotted.sort(key=operator.itemgetter(1))
    return table
