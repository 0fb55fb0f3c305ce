"""The s-tableau listings as the package had them before its walk kept only
live states.

_walk follows every chain of strips from the inner shape inside the outer
one and emits the chains that stop at the outer shape; nothing prunes a
chain that can no longer reach it.  dot_standard_tableaux,
enumerate_s_tableaux and realize_s read it through the same menus as the
package's.  They stay here as the oracle for the package's listings, and
dot_standard_tableaux as the oracle for schur_to_L, so that neither oracle
shares the live-state table the package's walks read.  The strips come from
strip_oracle._strips, which shares no strip code with the package."""

from strip_oracle import _strips
from superqsym.composition import DottedPart, _coerce_part
from superqsym.realize import SuperPolynomial
from superqsym.superschur import (
    STableau,
    Superpartition,
    _circle_inversions,
    _initial_circles,
)


def _steps(sp, circles, letter, part, outer):
    """(target, cells, new circles) for every strip of `part` over sp inside
    outer, sorted by target; a dotted part's new circle gets `letter`."""
    if part.dotted and sp.n_circles >= outer.n_circles:
        return []
    out = []
    sizes = range(part.value, part.value + 1)
    for new, rows, cells, idx in _strips(sp[0], sp[1], sizes, part.dotted, outer[0]):
        target = Superpartition._of((new, rows))
        letters = [l for _, l in circles]
        if idx is not None:
            letters.insert(idx, letter)
        out.append((target, cells, tuple(zip(target.circles_from_below(), letters))))
    out.sort(key=lambda step: (step[0].fermionic, step[0].bosonic))
    return out


def _walk(outer, inner, menu, emit) -> None:
    """Depth-first walk over every chain of strips from inner inside outer.
    menu(sp, weight) gives the parts the next letter may take, or None to stop
    there; a stop at outer calls emit(chain, weight, cells, circles)."""

    def go(sp, chain, cells, circles, weight):
        parts = menu(sp, weight)
        if parts is None:
            if sp == outer:
                emit(chain, weight, cells, circles)
            return
        letter = len(weight) + 1
        for part in parts:
            for target, new_cells, new_circles in _steps(
                sp, circles, letter, part, outer
            ):
                chain.append(target)
                cells.extend((cell, letter) for cell in new_cells)
                weight.append(part)
                go(target, chain, cells, new_circles, weight)
                weight.pop()
                del cells[len(cells) - len(new_cells) :]
                chain.pop()

    go(inner, [inner], [], _initial_circles(inner), [])
    del go


def _tableaux(outer, inner, menu) -> list:
    results = []

    def emit(chain, weight, cells, circles):
        results.append(
            STableau(inner, outer, tuple(chain), tuple(weight), tuple(cells), circles)
        )

    _walk(outer, inner, menu, emit)
    return results


def enumerate_s_tableaux(outer, inner, weight) -> list:
    wt = tuple(_coerce_part(p, min_plain=0) for p in weight)

    def menu(sp, weight):
        return None if len(weight) == len(wt) else (wt[len(weight)],)

    return _tableaux(outer, inner, menu)


def dot_standard_tableaux(outer, inner) -> list:
    def menu(sp, weight):
        if sp == outer:
            return None
        remaining = outer.degree - sp.degree
        parts = [DottedPart(1, False)] if remaining else []
        parts.extend(DottedPart(v, True) for v in range(remaining + 1))
        return parts

    return _tableaux(outer, inner, menu)


def realize_s(outer, inner, nvars: int) -> SuperPolynomial:
    terms: dict = {}

    def menu(sp, weight):
        if len(weight) == nvars:
            return None
        remaining = outer.degree - sp.degree
        return [DottedPart(v, d) for d in (False, True) for v in range(remaining + 1)]

    def emit(chain, weight, cells, circles):
        theta = tuple(i for i, p in enumerate(weight, start=1) if p.dotted)
        xp = tuple((i, p.value) for i, p in enumerate(weight, start=1) if p.value)
        key = (theta, xp)
        sign = -1 if _circle_inversions(circles) % 2 else 1
        terms[key] = terms.get(key, 0) + sign

    _walk(outer, inner, menu, emit)
    return SuperPolynomial._trusted(nvars, terms)
