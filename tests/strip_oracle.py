"""Horizontal strips of type s by filtering, the two ways the package once
made them.

bosonic_strips and fermionic_strips scan every superpartition of the next
degree and keep those that satisfy the strip conditions: the package's strip
generator before strips were read off row-room vectors.  They are the oracle
for the package's bosonic_strips and fermionic_strips.

_strips is the generator the package had before its strips were built
directly: it walks every vector of cells added per row, builds each vector's
cells, and keeps those whose circles land legally.  It is the oracle for the
package's superschur._strips over superschur._strip_vectors, and the strip
source of tests/tableau_oracle.py and tests/live_oracle.py, so that no
oracle shares strip code with what it checks."""

from itertools import product

from superqsym.superschur import Superpartition, superpartitions


def _padded(big, small):
    rows = max(len(big), len(small))
    return big + (0,) * (rows - len(big)), small + (0,) * (rows - len(small))


def is_horizontal_strip(big, small):
    b, s = _padded(big, small)
    if any(bv < sv for bv, sv in zip(b, s)):
        return False
    return all(b[i + 1] <= s[i] for i in range(len(b) - 1))


def strip_rows(big, small):
    b, s = _padded(big, small)
    return frozenset(i + 1 for i in range(len(b)) if b[i] > s[i])


def strip_cells(big, small):
    b, s = _padded(big, small)
    return tuple(
        (i + 1, c) for i in range(len(b)) for c in range(s[i] + 1, b[i] + 1)
    )


def old_circles_ok(small, small_values, big, big_values, rows):
    """Match the i-th circles from below: same row, or one below when the
    strip has a cell in the small circle's row."""
    if len(small_values) != len(big_values):
        return False
    for sv, bv in zip(small_values, big_values):
        r = small.circle_row(sv)
        if big.circle_row(bv) != r + (1 if r in rows else 0):
            return False
    return True


def bosonic_strips(gamma: Superpartition, size: int) -> tuple[Superpartition, ...]:
    out = []
    for cand in superpartitions(gamma.degree + size, gamma.n_circles):
        if not is_horizontal_strip(cand.star(), gamma.star()):
            continue
        rows = strip_rows(cand.star(), gamma.star())
        if old_circles_ok(
            gamma, gamma.circles_from_below(), cand, cand.circles_from_below(), rows
        ):
            out.append(cand)
    return tuple(out)


def fermionic_strips(gamma: Superpartition, size: int):
    out = []
    for cand in superpartitions(gamma.degree + size, gamma.n_circles + 1):
        if not is_horizontal_strip(cand.star(), gamma.star()):
            continue
        rows = strip_rows(cand.star(), gamma.star())
        cols = {c for _, c in strip_cells(cand.star(), gamma.star())}
        for new_value in cand.fermionic:
            col = new_value + 1
            if col in cols or any(c not in cols for c in range(1, col)):
                continue
            others = tuple(v for v in cand.circles_from_below() if v != new_value)
            if old_circles_ok(gamma, gamma.circles_from_below(), cand, others, rows):
                out.append((cand, col))
                break  # the column conditions pin the new circle uniquely
    return tuple(out)


def _strips(star, rows, sizes: range, dotted, cap=None):
    """Every horizontal strip of type s over the diagram (star, rows) whose
    cell count lies in `sizes`, kept from every vector of cells added per
    row.  Yields (new star, new circle rows, cells, index of the new circle
    among the circles from below, or None for a bosonic strip).  With `cap`,
    a star such as an outer shape's, no row grows past it.

    An old circle keeps its row, or moves one row down when the strip has a
    cell in its row; it must then end the topmost row of its length.  A
    fermionic strip's new circle ends the row whose length is one less than
    the first column the strip leaves empty."""
    padded = star + (0,)
    most = max(sizes, default=0)
    room = []
    for i, here in enumerate(padded):
        top = min(padded[i - 1], here + most) if i else here + most
        if cap is not None:
            top = min(top, cap[i] if i < len(cap) else 0)
        room.append(range(max(0, top - here) + 1))
    for add in product(*room):
        if sum(add) not in sizes:
            continue
        new = tuple(v for v in (s + a for s, a in zip(padded, add)) if v)
        length = len(new)

        def topmost(r):
            here = new[r - 1] if r <= length else 0
            return r == 1 or new[r - 2] > here

        moved = tuple(r + 1 if add[r - 1] else r for r in rows)
        if not all(map(topmost, moved)) or any(
            lo <= hi for lo, hi in zip(moved, moved[1:])
        ):
            continue
        cells = tuple(
            (i + 1, c)
            for i, a in enumerate(add)
            for c in range(padded[i] + 1, padded[i] + a + 1)
        )
        if not dotted:
            yield new, moved, cells, None
            continue
        filled = {c for _, c in cells}
        value = 0
        while value + 1 in filled:
            value += 1
        row = 1 + sum(1 for v in new if v > value)
        if (new[row - 1] if row <= length else 0) != value or row in moved:
            continue
        idx = sum(1 for r in moved if r > row)
        yield new, moved[:idx] + (row,) + moved[idx:], cells, idx
