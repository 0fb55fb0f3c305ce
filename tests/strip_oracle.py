"""Horizontal strips of type s by filtering: scan every superpartition of the
next degree and keep those that satisfy the strip conditions.  This was the
package's strip generator before strips were built row by row; it stays here
as the oracle for the constructive bosonic_strips and fermionic_strips."""

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
