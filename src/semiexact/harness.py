"""Deterministic generation of hypothesis-satisfying diagram corpora.

Rows are built constructively (surjections onto kernel submodules give
exact stretches by construction), verticals are drawn from cached hom-sets.
Squares are filled by a hash join on composite tables: for a fixed arrow
such as f2, the hom-set of candidate a1 is indexed once by the table of
f2∘a1, and the other side of the square, a2∘f1, is looked up as a plain
tuple. No Morphism is built to test a square; Diagram.from_arrows still
checks every square of every diagram it is handed.

Given the same spec (semiring, bound, seed) the generated corpus is
identical run to run; the seed only shuffles the candidate order so corpora
are not dominated by zero maps. Row pairs are shuffled as indices into the
product rather than as a materialised list of pairs: Random.shuffle's draws
depend only on the length of the list, so the order is the same either way.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from .core import Semiring, Subsemimodule, is_cancellative_module
from .diagrams import Diagram
from .enumeration import UniverseSpec, enumerate_semimodules, oracle_iso_exists
from .errors import ParameterError, StructureError
from .morphisms import (Morphism, classify, compose, enumerate_hom, image_set,
                        is_injective, is_isomorphism, is_k_uniform, is_surjective,
                        kernel_module, kernel_set)
from .quotients import bourne_congruence, quotient


@dataclass(frozen=True)
class HarnessSpec:
    semiring: Semiring
    max_size: int = 4
    seed: int = 0
    quota: int = 120


@lru_cache(maxsize=None)
def _pool(semiring, max_size):
    return enumerate_semimodules(UniverseSpec(semiring, max_size)).modules


@lru_cache(maxsize=None)
def _homs(M, N):
    return enumerate_hom(M, N)


@lru_cache(maxsize=None)
def _classify(f):
    return classify(f)


def _shuffled(items, seed, tag):
    # str seeding is sha512-based, stable across processes (unlike hash())
    out = list(items)
    random.Random(f"{seed}:{tag}").shuffle(out)
    return out


def _shuffled_pairs(left, right, seed, tag):
    """The pairs of _shuffled([(l, r) for l in left for r in right], seed, tag),
    yielded lazily: the permutation is drawn on indices into the product, and
    Random.shuffle's draws depend only on the length, so the order is the same."""
    m = len(right)
    order = list(range(len(left) * m))
    random.Random(f"{seed}:{tag}").shuffle(order)
    for k in order:
        yield left[k // m], right[k % m]


def _table(g, f):
    """The table of g∘f, without building (and re-validating) the Morphism."""
    return tuple(map(g.map.__getitem__, f.map))


def _index(homs, key):
    """Members of a hom-set grouped by key(h), each group in hom-set order."""
    out = {}
    for h in homs:
        out.setdefault(key(h), []).append(h)
    return out


@lru_cache(maxsize=None)
def _exact_pairs(semiring, max_size):
    """(f, g) with image(f) = Ker(g) and g k-uniform, over the module pool."""
    mods = _pool(semiring, max_size)
    out = []
    for M in mods:
        for N in mods:
            for g in _homs(M, N):
                if not is_k_uniform(g):
                    continue
                ker = kernel_set(g)
                for L in mods:
                    for f in _homs(L, M):
                        if image_set(f) == ker:
                            out.append((f, g))
    return tuple(out)


def _right_exact_rows(semiring, max_size):
    """Rows L -f-> M -g-> N -> 0: exact at M and g surjective."""
    return tuple((f, g) for f, g in _exact_pairs(semiring, max_size) if is_surjective(g))


def _left_exact_rows(semiring, max_size):
    """Rows 0 -> L -f-> M -g-> N: f injective and exact at M."""
    return tuple((f, g) for f, g in _exact_pairs(semiring, max_size) if is_injective(f))


def _short_exact_rows(semiring, max_size):
    return tuple((f, g) for f, g in _exact_pairs(semiring, max_size)
                 if is_injective(f) and is_surjective(g))


def _row_pairs_with_verticals(spec, rows_top, rows_bottom, tag):
    """Yield (f1, g1, f2, g2, a1, a2, a3) with both squares commuting."""
    seed = spec.seed
    for (f1, g1), (f2, g2) in _shuffled_pairs(rows_top, rows_bottom, seed, tag):
        a1_by = _index(_homs(f1.domain, f2.domain), lambda a1: _table(f2, a1))
        a3_by = _index(_homs(g1.codomain, g2.codomain), lambda a3: _table(a3, g1))
        for a2 in _shuffled(_homs(f1.codomain, f2.codomain), seed, tag + "a2"):
            for a1 in a1_by.get(_table(a2, f1), ()):
                for a3 in a3_by.get(_table(g2, a2), ()):
                    yield f1, g1, f2, g2, a1, a2, a3


def _build_2x3(name, f1, g1, f2, g2, a1, a2, a3):
    return Diagram.from_arrows(name, [[f1, g1], [f2, g2]], [[a1, a2, a3]])


def _bound(spec):
    return getattr(spec, "max_module_size", None) or getattr(spec, "max_size")


def vertical_triples(spec, require_cancellative_mid=False):
    """Short-exact row pairs with commuting verticals; used by the
    dropped-hypothesis searches. Accepts a HarnessSpec or a UniverseSpec."""
    rows = _short_exact_rows(spec.semiring, _bound(spec))
    hspec = HarnessSpec(spec.semiring, _bound(spec), getattr(spec, "seed", 0))
    for f1, g1, f2, g2, a1, a2, a3 in _row_pairs_with_verticals(hspec, rows, rows, "vt"):
        if require_cancellative_mid and not (
                is_cancellative_module(f1.codomain) and is_cancellative_module(f2.codomain)):
            continue
        yield (f1, g1), (f2, g2), (a1, a2, a3)


def short_exact_rows(spec):
    return _short_exact_rows(spec.semiring, _bound(spec))


# ----------------------------------------------------------- 2x3 generators

def gen_lemma_short(spec: HarnessSpec, direction: int):
    """Diagrams for the exactness-transfer lemma, per direction."""
    s, n = spec.semiring, spec.max_size
    exact = _exact_pairs(s, n)
    all_rows = tuple(dict.fromkeys(exact + _any_rows(s, n)))
    out = []
    if direction == 1:
        top, bottom = exact, all_rows
    elif direction == 2:
        top, bottom = all_rows, exact
    else:
        top, bottom = all_rows, all_rows
    for f1, g1, f2, g2, a1, a2, a3 in _row_pairs_with_verticals(
            spec, top, bottom, f"short{direction}"):
        if not (is_surjective(a1) and is_injective(a3)):
            continue
        if direction == 1 and not is_surjective(a2):
            continue
        if direction == 2 and not is_injective(a2):
            continue
        if direction == 3 and not is_isomorphism(a2):
            continue
        out.append(_build_2x3(f"short{direction}.{len(out)}", f1, g1, f2, g2, a1, a2, a3))
        if len(out) >= spec.quota:
            break
    return out


@lru_cache(maxsize=None)
def _any_rows(semiring, max_size, cap=400):
    """Composable (f, g) pairs with g∘f = 0, capped, for non-exact rows."""
    mods = _pool(semiring, max_size)
    out = []
    for M in mods:
        for N in mods:
            for g in _homs(M, N):
                ker = kernel_set(g)
                for L in mods:
                    for f in _homs(L, M):
                        if image_set(f) <= ker:
                            out.append((f, g))
                            if len(out) >= cap:
                                return tuple(out)
    return tuple(out)


def gen_lemma_diagram(spec: HarnessSpec, clause: str):
    s, n = spec.semiring, spec.max_size
    exact = _exact_pairs(s, n)
    out = []
    for f1, g1, f2, g2, a1, a2, a3 in _row_pairs_with_verticals(
            spec, exact, exact, f"diag{clause}"):
        if clause == "1a":
            ok = is_surjective(g1) and is_surjective(a1) and is_injective(a2)
        elif clause == "1b":
            ok = is_injective(f2) and _classify(a3).semi_mono and is_surjective(a2)
        elif clause == "2a":
            ok = (_classify(f2).semi_mono and _classify(a1).semi_mono
                  and _classify(a3).semi_mono)
        elif clause == "2b":
            ok = (_classify(f1).cancellative and _classify(a2).cancellative
                  and is_injective(a1) and is_injective(a3) and is_injective(f2))
        elif clause == "3":
            ok = is_surjective(a1) and is_surjective(a3) and is_surjective(g1)
        else:
            raise ParameterError(f"gen_lemma_diagram: unknown clause {clause}")
        if not ok:
            continue
        out.append(_build_2x3(f"diag{clause}.{len(out)}", f1, g1, f2, g2, a1, a2, a3))
        if len(out) >= spec.quota:
            break
    return out


def gen_short_five_half(spec: HarnessSpec, clause: int):
    s, n = spec.semiring, spec.max_size
    right = [(f, g) for f, g in _right_exact_rows(s, n)
             if is_cancellative_module(f.codomain)]
    left = [(f, g) for f, g in _left_exact_rows(s, n)
            if is_cancellative_module(f.codomain)]
    out = []
    for f1, g1, f2, g2, a1, a2, a3 in _row_pairs_with_verticals(
            spec, tuple(right), tuple(left), f"cs5.{clause}"):
        if clause == 1 and not is_isomorphism(a2):
            continue
        if clause == 2 and not (_classify(a2).i_uniform and is_isomorphism(a1)
                                and is_isomorphism(a3)):
            continue
        out.append(_build_2x3(f"cs5.{clause}.{len(out)}", f1, g1, f2, g2, a1, a2, a3))
        if len(out) >= spec.quota:
            break
    return out


def gen_short_five(spec: HarnessSpec):
    s, n = spec.semiring, spec.max_size
    rows = tuple((f, g) for f, g in _short_exact_rows(s, n)
                 if is_cancellative_module(f.codomain))
    out = []
    for f1, g1, f2, g2, a1, a2, a3 in _row_pairs_with_verticals(
            spec, rows, rows, "short5"):
        if not (is_isomorphism(a1) and is_isomorphism(a3)):
            continue
        out.append(_build_2x3(f"short5.{len(out)}", f1, g1, f2, g2, a1, a2, a3))
        if len(out) >= spec.quota:
            break
    return out


# ----------------------------------------------------------- 2x5 generators

@lru_cache(maxsize=None)
def _exact_5rows(semiring, max_size, cap=600):
    """Rows U -d-> L -f-> M -g-> N -h-> V exact at L, M, N, built right to left."""
    mods = _pool(semiring, max_size)
    rows = []
    for N in mods:
        for V in mods:
            for h in _homs(N, V):
                if not is_k_uniform(h):
                    continue
                kh, kh_incl = kernel_module(h)
                for M in mods:
                    for q in _homs(M, kh):
                        if not (is_surjective(q) and is_k_uniform(q)):
                            continue
                        g = compose(kh_incl, q)
                        kg, kg_incl = kernel_module(g)
                        for L in mods:
                            for q2 in _homs(L, kg):
                                if not (is_surjective(q2) and is_k_uniform(q2)):
                                    continue
                                f = compose(kg_incl, q2)
                                kf, kf_incl = kernel_module(f)
                                for U in mods:
                                    for q3 in _homs(U, kf):
                                        if not is_surjective(q3):
                                            continue
                                        d = compose(kf_incl, q3)
                                        rows.append((d, f, g, h))
                                        if len(rows) >= cap:
                                            return tuple(rows)
    return tuple(rows)


def _gen_2x5(spec: HarnessSpec, tag, keep):
    rows = _exact_5rows(spec.semiring, spec.max_size)
    seed = spec.seed
    out = []
    for (d1, f1, g1, h1), (d2, f2, g2, h2) in _shuffled_pairs(rows, rows, seed, tag):
        a1_by = _index(_homs(f1.domain, f2.domain), lambda a1: _table(f2, a1))
        a3_by = _index(_homs(g1.codomain, g2.codomain), lambda a3: _table(a3, g1))
        gamma_by = delta_by = None
        for a2 in _shuffled(_homs(f1.codomain, f2.codomain), seed, tag + "a2"):
            a1s = a1_by.get(_table(a2, f1))
            if not a1s:
                continue
            a3s = a3_by.get(_table(g2, a2))
            if not a3s:
                continue
            if gamma_by is None:
                gamma_by = _index(_homs(d1.domain, d2.domain), lambda g: _table(d2, g))
                delta_by = _index(_homs(h1.codomain, h2.codomain),
                                  lambda dd: _table(dd, h1))
            for a1 in a1s:
                gammas = gamma_by.get(_table(a1, d1), ())
                for a3 in a3s:
                    deltas = delta_by.get(_table(h2, a3), ())
                    for gamma in gammas:
                        for delta in deltas:
                            verts = (gamma, a1, a2, a3, delta)
                            if not keep((d1, f1, g1, h1), (d2, f2, g2, h2), verts):
                                continue
                            out.append(Diagram.from_arrows(
                                f"{tag}.{len(out)}",
                                [[d1, f1, g1, h1], [d2, f2, g2, h2]], [list(verts)]))
                            if len(out) >= spec.quota:
                                return out
    return out


def gen_five_parts(spec: HarnessSpec, clause: str):
    def keep(row1, row2, verts):
        gamma, a1, a2, a3, delta = verts
        if clause == "1a":
            return (is_surjective(gamma) and is_injective(a1)
                    and _classify(a3).semi_mono)
        if clause == "1b":
            return (is_surjective(gamma) and _classify(row1[1]).cancellative
                    and _classify(a2).cancellative and is_injective(a1)
                    and is_injective(a3))
        if clause == "2":
            return (_classify(delta).semi_mono and is_surjective(a1)
                    and is_surjective(a3))
        if clause == "3":
            return (_classify(row1[1]).cancellative and _classify(a2).cancellative
                    and is_surjective(gamma) and is_injective(delta)
                    and is_isomorphism(a1) and is_isomorphism(a3))
        raise ParameterError(f"gen_five_parts: unknown clause {clause}")

    return _gen_2x5(spec, f"fd{clause}", keep)


def gen_five(spec: HarnessSpec, clause: int):
    def keep(row1, row2, verts):
        gamma, a1, a2, a3, delta = verts
        if not (is_surjective(gamma) and is_injective(delta)
                and is_cancellative_module(row1[1].codomain)
                and is_cancellative_module(row2[1].codomain)):
            return False
        if clause == 1:
            return is_injective(a1) and is_injective(a3)
        if clause == 2:
            return (_classify(a2).i_uniform and is_surjective(a1)
                    and is_surjective(a3))
        if clause == 3:
            return (_classify(a2).i_uniform and is_isomorphism(a1)
                    and is_isomorphism(a3))
        raise ParameterError(f"gen_five: unknown clause {clause}")

    return _gen_2x5(spec, f"five{clause}", keep)


# ----------------------------------------------------------- 3x3 generators

def _derive_quotient_row(f2, g2, a1, a2, a3):
    """Bottom row of a 3x3: quotients by the vertical images with the induced
    maps; None when an induced map is not well-defined."""
    q1 = quotient(a1.codomain, bourne_congruence(
        Subsemimodule(a1.codomain, tuple(sorted(image_set(a1))))))
    q2 = quotient(a2.codomain, bourne_congruence(
        Subsemimodule(a2.codomain, tuple(sorted(image_set(a2))))))
    q3 = quotient(a3.codomain, bourne_congruence(
        Subsemimodule(a3.codomain, tuple(sorted(image_set(a3))))))

    def induced(q_src, q_dst, f):
        table = [None] * q_src.quotient.size
        for x in f.domain.elements():
            c = q_src.projection.map[x]
            v = q_dst.projection.map[f.map[x]]
            if table[c] is None:
                table[c] = v
            elif table[c] != v:
                return None
        return Morphism(f"[{f.name}]", q_src.quotient, q_dst.quotient, table)

    f3 = induced(q1, q2, f2)
    g3 = induced(q2, q3, g2)
    if f3 is None or g3 is None:
        return None
    return (q1, q2, q3), (f3, g3)


def _gen_3x3(spec: HarnessSpec, tag, top_filter, keep):
    """Middle row short exact; tops chosen i-uniform (per-column injectivity
    via top_filter); top row enumerated against the squares; bottom row is
    the quotient row."""
    s, n = spec.semiring, spec.max_size
    mods = _pool(s, n)
    mid_rows = _short_exact_rows(s, n)
    seed = spec.seed
    out = []
    for f2, g2 in _shuffled(mid_rows, seed, tag):
        L2, M2, N2 = f2.domain, f2.codomain, g2.codomain
        a1s = [a for L1 in mods for a in _homs(L1, L2) if top_filter(0, a)]
        a2s = [a for M1 in mods for a in _homs(M1, M2) if top_filter(1, a)]
        a3s = [a for N1 in mods for a in _homs(N1, N2) if top_filter(2, a)]
        g1_by = {}  # (M1, position of a3) -> index of Hom(M1, N1) by a3∘g1
        for a2 in _shuffled(a2s, seed, tag + "a2"):
            M1 = a2.domain
            f1_by = {}  # L1 -> index of Hom(L1, M1) by a2∘f1
            for a1 in a1s:
                L1 = a1.domain
                if L1 not in f1_by:
                    f1_by[L1] = _index(_homs(L1, M1), lambda f1: _table(a2, f1))
                f1s = f1_by[L1].get(_table(f2, a1))
                if not f1s:
                    continue
                for j, a3 in enumerate(a3s):
                    if (M1, j) not in g1_by:
                        g1_by[M1, j] = _index(_homs(M1, a3.domain),
                                              lambda g1: _table(a3, g1))
                    g1s = g1_by[M1, j].get(_table(g2, a2))
                    if not g1s:
                        continue
                    derived = _derive_quotient_row(f2, g2, a1, a2, a3)
                    if derived is None:
                        continue
                    (q1, q2, q3), (f3, g3) = derived
                    for f1 in f1s:
                        for g1 in g1s:
                            diagram = Diagram.from_arrows(
                                f"{tag}.{len(out)}",
                                [[f1, g1], [f2, g2], [f3, g3]],
                                [[a1, a2, a3],
                                 [q1.projection, q2.projection, q3.projection]])
                            if not keep(diagram):
                                continue
                            out.append(diagram)
                            if len(out) >= spec.quota:
                                return out
    return out


def gen_nine_first(spec: HarnessSpec, clause: int):
    def top_filter(col, a):
        c = _classify(a)
        if col == 0:
            return c.i_uniform
        return c.i_uniform and c.injective

    def keep(d):
        f2 = d.horizontal(1, 0)
        f3, g3 = d.horizontal(2, 0), d.horizontal(2, 1)
        if clause == 1:
            return is_injective(f3) and _classify(f2).cancellative
        b1 = d.vertical(1, 0)
        g2 = d.horizontal(1, 1)
        return (is_surjective(g2) and is_surjective(b1)
                and image_set(f3) == kernel_set(g3) and is_k_uniform(g3))

    return _gen_3x3(spec, f"nine1.{clause}", top_filter, keep)


def gen_nine_third(spec: HarnessSpec, clause: int):
    def top_filter(col, a):
        c = _classify(a)
        if clause == 2 and col == 2 and not c.injective:
            return False
        return c.i_uniform

    def keep(d):
        f1, g1 = d.horizontal(0, 0), d.horizontal(0, 1)
        f2 = d.horizontal(1, 0)
        f3 = d.horizontal(2, 0)
        a2, a3 = d.vertical(0, 1), d.vertical(0, 2)
        if clause == 1:
            return is_surjective(g1) and _classify(f3).i_uniform
        return (is_injective(f2) and is_injective(a3)
                and _classify(a2).cancellative
                and image_set(f1) == kernel_set(g1) and is_k_uniform(g1))

    return _gen_3x3(spec, f"nine3.{clause}", top_filter, keep)


def gen_nine(spec: HarnessSpec, direction: str):
    def top_filter(col, a):
        c = _classify(a)
        return c.i_uniform and c.injective

    def keep(d):
        if not is_cancellative_module(d.node(1, 1)):
            return False
        f3, g3 = d.horizontal(2, 0), d.horizontal(2, 1)
        f1, g1 = d.horizontal(0, 0), d.horizontal(0, 1)
        if not (_classify(f3).i_uniform and _classify(g1).i_uniform):
            return False
        if direction == "first-from-third":
            return (is_injective(f3) and image_set(f3) == kernel_set(g3)
                    and is_k_uniform(g3) and is_surjective(g3))
        if direction == "third-from-first":
            return (is_injective(f1) and image_set(f1) == kernel_set(g1)
                    and is_k_uniform(g1) and is_surjective(g1))
        return True

    return _gen_3x3(spec, f"nine.{direction}", top_filter, keep)


# --------------------------------------------------------- snake generation

def _automorphisms(M):
    return [h for h in _homs(M, M) if is_isomorphism(h)]


@lru_cache(maxsize=None)
def _snake_left_rows(semiring, max_size, cap=200):
    """Rows 0 -> L2 -f2-> M2 -g2-> N2 with f2 injective onto Ker(g2)."""
    mods = _pool(semiring, max_size)
    rows = []
    for M in mods:
        for N in mods:
            for g in _homs(M, N):
                if not is_k_uniform(g):
                    continue
                kmod, kincl = kernel_module(g)
                for L in mods:
                    iso = oracle_iso_exists(L, kmod)
                    if iso is None:
                        continue
                    for aut in _automorphisms(kmod):
                        rows.append((compose(kincl, compose(aut, iso)), g))
                        if len(rows) >= cap:
                            return tuple(rows)
    return tuple(rows)


def gen_snake(spec: HarnessSpec):
    """Snake inputs: top row right-exact, bottom row left-exact, verticals
    with alpha1/alpha3 k-uniform and alpha2 uniform; alpha1 and alpha3 are
    derived from alpha2 through the squares, so only alpha2 is enumerated."""
    s, n = spec.semiring, spec.max_size
    top_rows = _right_exact_rows(s, n)
    bottom_rows = _snake_left_rows(s, n)
    seed = spec.seed
    out = []
    for (f1, g1), (f2, g2) in _shuffled_pairs(top_rows, bottom_rows, seed, "snake"):
        for a2 in _shuffled(_homs(f1.codomain, f2.codomain), seed, "snake.a2"):
            if not _classify(a2).uniform:
                continue
            a1 = _derive_left_vertical(f1, f2, a2)
            if a1 is None or not _classify(a1).k_uniform:
                continue
            a3 = _derive_right_vertical(g1, g2, a2)
            if a3 is None or not _classify(a3).k_uniform:
                continue
            out.append(_build_2x3(f"snake.{len(out)}", f1, g1, f2, g2, a1, a2, a3))
            if len(out) >= spec.quota:
                return out
    return out


def _derive_left_vertical(f1, f2, a2):
    """Unique a1 with f2∘a1 = a2∘f1 when f2 is injective; None if absent."""
    pre = {}
    for x in f2.domain.elements():
        pre[f2.map[x]] = x
    table = []
    for l1 in f1.domain.elements():
        v = a2.map[f1.map[l1]]
        if v not in pre:
            return None
        table.append(pre[v])
    try:
        return Morphism(f"a1[{f1.domain.name}->{f2.domain.name}]",
                        f1.domain, f2.domain, table)
    except StructureError:
        return None


def _derive_right_vertical(g1, g2, a2):
    """Unique a3 with a3∘g1 = g2∘a2 when g1 is surjective; None if inconsistent."""
    table = [None] * g1.codomain.size
    for m1 in g1.domain.elements():
        n1 = g1.map[m1]
        v = g2.map[a2.map[m1]]
        if table[n1] is None:
            table[n1] = v
        elif table[n1] != v:
            return None
    if any(t is None for t in table):
        return None
    try:
        return Morphism(f"a3[{g1.codomain.name}->{g2.codomain.name}]",
                        g1.codomain, g2.codomain, table)
    except StructureError:
        return None
