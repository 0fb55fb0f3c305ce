"""Superpartitions, horizontal strips of type s, s-tableaux, and the
expansion of superspace Schur functions into the fundamental basis."""

from __future__ import annotations

import functools
import operator
from itertools import combinations, product
from typing import Iterable, NamedTuple, Optional

from ._livetable import _live_moves, _new_circle_row
from .algebra import Expr
from .composition import _PARTS, DottedComposition, DottedPart, _as_int, _coerce_part, _end, _scan
from .realize import SuperPolynomial, _check_nvars


class NotDotStandardError(ValueError):
    pass


class IncompatibleShapeError(ValueError):
    pass


class SuperpartitionParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"parse error at position {position}: {message}")
        self.position = position


class Superpartition(tuple):
    """A pair (fermionic; bosonic): strictly decreasing distinct parts >= 0
    carrying circles, and an ordinary partition.  Among equal row lengths the
    circled row sits above the plain one, so the circled diagram is fixed.

    The value is that diagram, the tuple (star, rows): `star` holds the row
    lengths, longest first, and `rows` the diagram rows of the circles, listed
    from below.  A circle of value 0 sits in the row under the last."""

    __slots__ = ()

    def __new__(cls, fermionic: Iterable[int] = (), bosonic: Iterable[int] = ()):
        f = tuple(sorted(map(_as_int, fermionic), reverse=True))
        b = tuple(sorted(map(_as_int, bosonic), reverse=True))
        if any(v < 0 for v in f):
            raise ValueError("fermionic parts must be >= 0")
        if len(set(f)) != len(f):
            raise ValueError("fermionic parts must be distinct")
        if any(v < 1 for v in b):
            raise ValueError("bosonic parts must be >= 1")
        star = tuple(sorted((v for v in f + b if v > 0), reverse=True))
        rows = tuple(1 + sum(1 for v in star if v > c) for c in reversed(f))
        return tuple.__new__(cls, (star, rows))

    # wraps a diagram (star, rows) the package built itself, without checking
    # that each circle ends the topmost row of its length
    _of = classmethod(tuple.__new__)

    def __reduce__(self):
        # tuple pickling would pass the diagram to the validating __new__
        return (type(self), (self.fermionic, self.bosonic))

    @property
    def fermionic(self) -> tuple[int, ...]:
        return self.circles_from_below()[::-1]

    @property
    def bosonic(self) -> tuple[int, ...]:
        star, rows = self
        return tuple(v for r, v in enumerate(star, 1) if r not in rows)

    def __repr__(self) -> str:
        return str(self)

    def __str__(self) -> str:
        return (
            "("
            + ",".join(str(v) for v in self.fermionic)
            + ";"
            + ",".join(str(v) for v in self.bosonic)
            + ")"
        )

    @property
    def n_circles(self) -> int:
        return len(self[1])

    @property
    def degree(self) -> int:
        return sum(self[0])

    def star(self) -> tuple[int, ...]:
        return self[0]

    def star_padded(self, length: int) -> tuple[int, ...]:
        return self[0] + (0,) * (length - len(self[0]))

    def circle_row(self, value: int) -> int:
        """Diagram row (1-based, top-down) of the circle ending a row of
        this length; rows sorted by length, circled above plain on ties."""
        return 1 + sum(1 for v in self[0] if v > value)

    def circles_from_below(self) -> tuple[int, ...]:
        star, rows = self
        return tuple(star[r - 1] if r <= len(star) else 0 for r in rows)

    def contains(self, other: "Superpartition") -> bool:
        (star, rows), (small, small_rows) = self, other
        return (
            len(rows) >= len(small_rows)
            and len(star) >= len(small)
            and all(a >= b for a, b in zip(star, small))
        )

    @classmethod
    def parse(cls, text: str) -> "Superpartition":
        # positions count in `text`, as parse_composition counts them
        lead = len(text) - len(text.lstrip())
        if not text.startswith("(", lead):
            raise SuperpartitionParseError("expected '('", lead)
        if ";" not in text.partition(")")[0]:
            raise SuperpartitionParseError("expected ';' separator", lead + 1)
        error = SuperpartitionParseError
        fermionic, i = _scan(text, lead + 1, ";", error, False)
        bosonic, i = _scan(text, i, ")", error, False)
        _end(text, i, error)
        try:
            return cls(fermionic, bosonic)
        except ValueError as exc:
            raise SuperpartitionParseError(str(exc), lead + 1) from None


EMPTY_SHAPE = Superpartition()


def partitions_of(n: int, max_part: Optional[int] = None) -> list[tuple[int, ...]]:
    if max_part is None:
        max_part = n
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions_of(n - first, first):
            out.append((first,) + rest)
    return out


def superpartitions(degree: int, circles: int) -> list[Superpartition]:
    """All superpartitions with |star| = degree and the given circle count;
    a negative degree or count has none."""
    degree, circles = _as_int(degree), _as_int(circles)
    if circles < 0:
        return []
    # the fermionic parts are distinct, from degree down to 0; a negative
    # rest has no partitions
    results = [
        Superpartition(ferm, bos)
        for ferm in combinations(range(degree, -1, -1), circles)
        for bos in partitions_of(degree - sum(ferm))
    ]
    return sorted(results, key=lambda sp: (sp.fermionic, sp.bosonic))


# ---------------------------------------------------------------------------
# horizontal strips of type s
#
# A strip works on the diagram, which is the superpartition itself: `star`,
# the row lengths longest first, and `rows`, the diagram rows of the circles
# listed from below.  Each kind of strip is made in two stages: one reads the
# star alone, and the other filters its output by the circle rows.  The Schur
# walks build no strips here: they read their moves from _livetable.


def _strip_vectors(star, most: int, only=None) -> list:
    """The star-only stage of the strips over a diagram whose row lengths are
    `star`: every vector of at most `most` cells added per row, in
    lexicographic order, as (cell count, new star, vector, _new_circle_row).
    With `only`, one vector with an entry per row of star and one for the
    empty row under it, the output holds that vector alone, or nothing when
    it is not among them.

    Each row has room up to the old length of the row above, so every vector
    is a horizontal strip.  None of this reads the circles, which only
    filter the vectors."""
    padded = star + (0,)
    room = []
    for i, here in enumerate(padded):
        top = min(padded[i - 1], here + most) if i else here + most
        room.append(range(max(0, top - here) + 1))
    if only is None:
        adds = product(*room)
    else:
        adds = [only] if all(map(operator.contains, room, only)) else []
    out = []
    for add in adds:
        size = sum(add)
        if size > most:
            continue
        new = tuple(map(operator.add, padded, add))
        if not new[-1]:
            new = new[:-1]
        out.append((size, new, add, _new_circle_row(padded, add)))
    return out


def _strips(vectors, rows, dotted):
    """The circle stage: every horizontal strip of type s that `vectors`, the
    _strip_vectors of a star, make over the diagram (star, rows).  Yields (cell
    count, new star, new circle rows, index of the new circle among the
    circles from below, or None for a bosonic strip), in the vectors' order.

    An old circle keeps its row, or moves one row down when the strip has a
    cell in its row; either way it still ends the topmost row of its length,
    so a vector fails only when a circle moves onto the row of a circle that
    stays.  No old circle may end a fermionic strip's new circle's row."""
    stacked = [r for r in rows if r + 1 in rows]
    for size, new, add, row in vectors:
        if stacked and any(add[r - 1] and not add[r] for r in stacked):
            continue
        moved = tuple([r + 1 if add[r - 1] else r for r in rows])
        if not dotted:
            yield size, new, moved, None
            continue
        if row in moved:
            continue
        idx = sum(1 for r in moved if r > row)
        yield size, new, moved[:idx] + (row,) + moved[idx:], idx


def _by_target(found) -> list:
    """`found`, pairs (diagram, new-circle index), as (target, index) sorted
    by target: fermionic parts, then bosonic."""
    found = [(Superpartition._of(diagram), idx) for diagram, idx in found]
    found.sort(key=lambda t: (t[0].fermionic, t[0].bosonic))
    return found


def _uncapped_targets(gamma, size, dotted) -> list:
    """The `size`-cell strips over gamma, as (target, new-circle index),
    sorted by target."""
    # every shape contains the empty one, so this only checks gamma's type
    _require_inside(gamma, EMPTY_SHAPE)
    size = _as_int(size)
    if size < 0:
        raise ValueError(f"strip size must be >= 0, got {size}")
    vectors = [v for v in _strip_vectors(gamma[0], size) if v[0] == size]
    return _by_target(
        ((star, rows), idx) for _, star, rows, idx in _strips(vectors, gamma[1], dotted)
    )


def bosonic_strips(gamma: Superpartition, size: int) -> tuple[Superpartition, ...]:
    """All targets one bosonic horizontal `size`-strip above gamma."""
    return tuple(target for target, _ in _uncapped_targets(gamma, size, False))


def fermionic_strips(
    gamma: Superpartition, size: int
) -> tuple[tuple[Superpartition, int], ...]:
    """All (target, new-circle column) one fermionic `size`-strip above gamma:
    the new circle's column is empty while every column left of it holds a
    strip cell; remaining circles move as in the bosonic case."""
    return tuple(
        (target, target.circles_from_below()[idx] + 1)
        for target, idx in _uncapped_targets(gamma, size, True)
    )


# ---------------------------------------------------------------------------
# s-tableaux


def _circle_word(circles) -> tuple[int, ...]:
    # top-to-bottom = decreasing circle value; unfilled circles are skipped
    return tuple(
        letter for value, letter in sorted(circles, reverse=True) if letter is not None
    )


def _circle_inversions(circles) -> int:
    w = _circle_word(circles)
    return sum(
        1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j]
    )


class STableau(NamedTuple):
    inner: Superpartition
    outer: Superpartition
    chain: tuple[Superpartition, ...]
    weight: tuple[DottedPart, ...]
    cells: tuple[tuple[tuple[int, int], int], ...]  # ((row, col), letter)
    circles: tuple[tuple[int, Optional[int]], ...]  # (value, letter) from below

    def cell_map(self) -> dict[tuple[int, int], int]:
        return dict(self.cells)

    def circle_word(self) -> tuple[int, ...]:
        return _circle_word(self.circles)

    def inv(self) -> int:
        return _circle_inversions(self.circles)

    def sign(self) -> int:
        return -1 if self.inv() % 2 else 1

    def is_dot_standard(self) -> bool:
        return all(p.dotted or p.value == 1 for p in self.weight)

    def ascii(self) -> str:
        cmap = self.cell_map()
        circle_at: dict[int, Optional[int]] = {}
        for value, letter in self.circles:
            circle_at[self.outer.circle_row(value)] = letter
        star = self.outer.star()
        inner_star = self.inner.star_padded(len(star) + self.outer.n_circles)
        nrows = max(
            len(star),
            max(circle_at, default=0),
        )
        lines = []
        for r in range(1, nrows + 1):
            width = star[r - 1] if r <= len(star) else 0
            row = []
            for c in range(1, width + 1):
                if (r, c) in cmap:
                    row.append(f"[{cmap[(r, c)]}]")
                elif c <= inner_star[r - 1]:
                    row.append(" . ")
                else:
                    row.append("[ ]")
            if r in circle_at:
                letter = circle_at[r]
                row.append(f"({letter})" if letter is not None else "( )")
            lines.append("".join(row))
        return "\n".join(lines)


# the moves of a state missing from a _live_moves table
_DEAD = ((), ())


def _initial_circles(inner: Superpartition) -> tuple[tuple[int, Optional[int]], ...]:
    return tuple((v, None) for v in inner.circles_from_below())


def _step(sp, circles, letter, target, idx):
    """(target, cells, new circles) of the strip from sp to target, where
    `circles` pairs sp's circle values, from below, with their letters (None
    on inner's circles); a new circle, at index idx from below, gets `letter`."""
    cells = tuple(
        (r, c)
        for r, (lo, hi) in enumerate(zip(sp[0] + (0,), target[0]), 1)
        for c in range(lo + 1, hi + 1)
    )
    letters = [l for _, l in circles]
    if idx is not None:
        letters.insert(idx, letter)
    return target, cells, tuple(zip(target.circles_from_below(), letters))


def _steps(live, sp, part) -> list:
    """The (target, new-circle index) of every strip of `part` over sp that
    the _live_moves table `live` holds, sorted by target.  A dotted part is
    one of sp's dotted moves; a bosonic k-strip is k one-cell moves, each in
    a row no lower than the last, so bottom row first and each row's cells
    left to right; a 0-strip stays on sp."""
    if part.dotted:
        dotted = live.get(sp, _DEAD)[1]
        found = [((new, rows), idx) for n, new, rows, idx in dotted if n == part.value]
        return _by_target(found)
    # (state, row of its last cell): the first cell may go in any row
    layer = [(sp, len(sp[0]) + 1)]
    for _ in range(part.value):
        layer = [
            ((new, rows), row)
            for state, last in layer
            for new, rows, row in live.get(state, _DEAD)[0]
            if row <= last
        ]
    return _by_target((state, None) for state, _ in layer)


def _walk(outer, inner, menu):
    """Depth-first walk over the chains of strips from inner inside outer.
    menu(sp, weight, sizes) gives the parts the next letter may take, or None
    to stop there, where `sizes` lists, in order, the cell counts of sp's
    dotted moves; each stop at outer yields (chain, weight, cells, circles),
    all tuples.  The walk reads every step from the call's _live_moves table,
    so every chain it follows can still end at outer.  It keeps its frames on a
    stack, not the interpreter's, pushing parts and steps in reverse so that
    they pop in order."""
    live = _live_moves(outer, inner)
    stack = [(inner, (inner,), (), _initial_circles(inner), ())]
    while stack:
        sp, chain, cells, circles, weight = stack.pop()
        parts = menu(sp, weight, sorted({move[0] for move in live.get(sp, _DEAD)[1]}))
        if parts is None:
            if sp == outer:
                yield chain, weight, cells, circles
            continue
        letter = len(weight) + 1
        for part in reversed(parts):
            for target, idx in reversed(_steps(live, sp, part)):
                target, added, new_circles = _step(sp, circles, letter, target, idx)
                new_cells = cells + tuple((cell, letter) for cell in added)
                stack.append((target, chain + (target,), new_cells, new_circles, weight + (part,)))


def _tableaux(outer, inner, menu) -> list[STableau]:
    return [STableau(inner, outer, *stop) for stop in _walk(outer, inner, menu)]


def _require_inside(outer: Superpartition, inner: Superpartition) -> None:
    """Refuse a shape that is not a Superpartition (a plain (star, rows) tuple
    included), then an inner shape that outer does not contain."""
    for shape in (outer, inner):
        if not isinstance(shape, Superpartition):
            raise TypeError(f"expected Superpartition, got {type(shape).__name__}")
    if not outer.contains(inner):
        raise IncompatibleShapeError(f"{inner} is not contained in {outer}")


def enumerate_s_tableaux(
    outer: Superpartition, inner: Superpartition, weight: Iterable
) -> list[STableau]:
    """All s-tableaux of shape outer/inner with the given weight (entries are
    ints for bosonic strips, 'd<k>' strings or (k, True) pairs for fermionic)."""
    _require_inside(outer, inner)
    wt = tuple(_coerce_part(p, min_plain=0) for p in weight)

    def menu(sp, weight, sizes):
        return None if len(weight) == len(wt) else (wt[len(weight)],)

    return _tableaux(outer, inner, menu)


def dot_standard_tableaux(
    outer: Superpartition, inner: Superpartition
) -> list[STableau]:
    """All dot-standard s-tableaux of shape outer/inner (non-dotted weight
    entries equal 1; dotted entries of any size including d0)."""
    _require_inside(outer, inner)

    def menu(sp, weight, sizes):
        if sp == outer:
            return None
        parts = [DottedPart(1, False)] if sp.degree < outer.degree else []
        parts.extend(DottedPart(v, True) for v in sizes)
        return parts

    return _tableaux(outer, inner, menu)


def inv_sign(tab: STableau) -> int:
    return tab.sign()


def comp_of_tableau(tab: STableau) -> DottedComposition:
    """Descent composition of a dot-standard s-tableau: a dotted letter is a
    part of its own, and a non-dotted letter joins the open run when its
    cell is in a row at or above the last letter's, as schur_to_L glues."""
    if not tab.is_dot_standard():
        raise NotDotStandardError("every non-dotted weight entry must equal 1")
    rows = {letter: r for (r, _c), letter in tab.cells}
    parts: list[DottedPart] = []
    run = last = 0
    for i, p in enumerate(tab.weight, start=1):
        if run and (p.dotted or rows[i] > last):
            parts.append(DottedPart(run, False))
            run = 0
        if p.dotted:
            parts.append(p)
        else:
            run, last = run + 1, rows[i]
    if run:
        parts.append(DottedPart(run, False))
    return DottedComposition._of(parts)


def standardize(tab: STableau) -> STableau:
    """Split every bosonic letter into single-cell letters (left to right),
    drop empty bosonic letters, and relabel consecutively; circles keep their
    relative order."""
    steps: list[tuple[DottedPart, tuple[tuple[int, int], ...]]] = []
    cmap: dict[int, list[tuple[int, int]]] = {}
    for (cell, letter) in tab.cells:
        cmap.setdefault(letter, []).append(cell)
    for i, p in enumerate(tab.weight, start=1):
        cells = tuple(sorted(cmap.get(i, ()), key=lambda rc: rc[1]))
        if p.dotted:
            steps.append((p, cells))
        else:
            for cell in cells:
                steps.append((DottedPart(1, False), (cell,)))

    sp = tab.inner
    chain = [sp]
    circles = _initial_circles(tab.inner)
    out_cells: list[tuple[tuple[int, int], int]] = []
    weight: list[DottedPart] = []
    for letter, (part, cells) in enumerate(steps, start=1):
        # the cells fix the strip: check the one vector that adds them; a
        # step past outer is caught at the end, as stars and circles only grow
        star, want = sp[0], frozenset(cells)
        add = tuple(sum(1 for r, _ in want if r == i) for i in range(1, len(star) + 2))
        vectors = _strip_vectors(star, part.value, add)
        matches = [
            _step(sp, circles, letter, Superpartition._of((new, rows)), idx)
            for n, new, rows, idx in _strips(vectors, sp[1], part.dotted)
            if n == part.value
        ]
        if len(matches) != 1 or frozenset(matches[0][1]) != want:
            raise ValueError("standardization produced an ambiguous or invalid step")
        target, new_cells, new_circles = matches[0]
        out_cells.extend((cell, letter) for cell in new_cells)
        weight.append(part)
        chain.append(target)
        sp, circles = target, new_circles
    if sp != tab.outer:
        raise ValueError("standardization did not reach the outer shape")
    return STableau(
        tab.inner,
        tab.outer,
        tuple(chain),
        tuple(weight),
        tuple(out_cells),
        circles,
    )


# ---------------------------------------------------------------------------
# Schur expansions


def schur_to_L(outer: Superpartition, inner: Superpartition = EMPTY_SHAPE) -> Expr:
    """s_{outer/inner} = sum over dot-standard tableaux of sign * L_comp(T).

    The tableaux are counted, not listed: a memoized walk over the states
    (shape, filled circles, row of the last letter if it was non-dotted) maps
    each state to the signed count of the compositions its suffixes read.
    comp(T) only compares adjacent letters, so a suffix's compositions fall in
    two counters: `free` ones start a new part, `glued` ones begin with a
    non-dotted run that joins the prefix's last part (its first cell lies in a
    row <= the prefix's last row).  A new circle letter is the largest so far,
    so it adds one inversion per filled circle below it; the circles of the
    inner shape stay unfilled.  A suffix's composition is one int inside the
    walk, its digits the ranks of its parts (see DottedPart) in base
    2*degree+4, above the rank of the plain part |outer|, the first part
    lowest: a cell prefixes 5, the part 1, a dotted k-strip 2k+2, and a glued
    cell adds 2.  Each state reads its moves from the call's _live_moves
    table, built backward from outer, which holds only moves onto live states
    and no dead state: every state the walk enters counts at least one
    suffix.  That table and the memo of walk states live for one call.

    With an inner shape, this is the tableau sum with each tableau's own
    sign.  It is not the coefficient of s_inner in the coproduct of s_outer,
    which weighs each tableau by a further (-1)^k, k the pairs (inner
    circle, lettered circle) with the inner circle larger: of the 2,565
    nonzero skew pairs of degree <= 6 the two agree on 2,206, are opposite
    on 309 and differ otherwise on 50."""
    _require_inside(outer, inner)
    base = 2 * outer.degree + 4
    moves = _live_moves(outer, inner)

    @functools.cache
    def walk(star, rows, filled, last):
        free: dict[int, int] = {}
        glued: dict[int, int] = {}
        if (star, rows) == outer:
            free[0] = 1
        cells, dotted = moves.get((star, rows), _DEAD)
        for new, new_rows, row in cells:
            out = glued if last is not None and row <= last else free
            sub_free, sub_glued = walk(new, new_rows, filled, row)
            for key, c in sub_free.items():
                key = key * base + 5
                out[key] = out.get(key, 0) + c
            for key, c in sub_glued.items():
                key += 2
                out[key] = out.get(key, 0) + c
        for size, new, new_rows, idx in dotted:
            rank = 2 * size + 2
            below = filled & ((1 << idx) - 1)
            sign = -1 if below.bit_count() & 1 else 1
            sub_free, _ = walk(
                new, new_rows, below | (1 << idx) | (filled >> idx) << (idx + 1), None
            )
            for key, c in sub_free.items():
                key = key * base + rank
                free[key] = free.get(key, 0) + sign * c
        return free, glued

    free, _ = walk(*inner, 0, None)
    del walk  # walk reaches itself through its closure: free the walk now
    terms = {}
    for key, c in free.items():
        if not c:
            continue
        parts = []
        while key:
            key, rank = divmod(key, base)
            parts.append(_PARTS[rank])
        terms[DottedComposition._of(parts)] = c
    # the coefficients are nonzero ints
    return Expr._wrap("L", terms)


def realize_s(
    outer: Superpartition, inner: Superpartition, nvars: int
) -> SuperPolynomial:
    """Generating sum over all s-tableaux with exactly `nvars` letters
    (weights may contain 0 and d0).  It walks the listings' walk, which reads
    its steps from the live table schur_to_L reads too, so it is no longer an
    independent oracle for schur_to_L; the tests keep an unpruned copy."""
    nvars = _check_nvars(nvars)
    _require_inside(outer, inner)
    terms: dict = {}

    def menu(sp, weight, sizes):
        if len(weight) == nvars:
            return None
        parts = [DottedPart(v, False) for v in range(outer.degree - sp.degree + 1)]
        parts.extend(DottedPart(v, True) for v in sizes)
        return parts

    for _, weight, _, circles in _walk(outer, inner, menu):
        theta = tuple(i for i, p in enumerate(weight, start=1) if p.dotted)
        xp = tuple(
            (i, p.value) for i, p in enumerate(weight, start=1) if p.value
        )
        key = (theta, xp)
        sign = -1 if _circle_inversions(circles) % 2 else 1
        terms[key] = terms.get(key, 0) + sign
    return SuperPolynomial._trusted(nvars, terms)
