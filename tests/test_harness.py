"""Harness determinism and small per-clause verification runs.

The full-size corpora (quota 100+) run in the acceptance suite; here each
clause gets a small quota to keep the unit suite fast.
"""

import hashlib
import json
import math
import random
import subprocess
import sys
import typing
from functools import lru_cache, partial
from pathlib import Path

import pytest

from semiexact import diagrams, harness, morphisms
from semiexact.core import Semiring, make_boolean, make_saturating_naturals, make_zmod
from semiexact.diagrams import (CLAUSES, snake, verify_short_five_half, verify_five,
                                verify_five_parts, verify_lemma_diagram,
                                verify_lemma_short, verify_nine, verify_nine_first,
                                verify_nine_third, verify_short_five)
from semiexact.errors import HypothesisError, ParameterError, StructureError
from semiexact.harness import (HarnessSpec, gen_short_five_half, gen_five,
                               gen_five_parts, gen_lemma_diagram, gen_lemma_short,
                               gen_nine, gen_nine_first, gen_nine_third,
                               gen_short_five, gen_snake)
from semiexact.enumeration import oracle_iso_exists
from semiexact.fixtures import builtin_semirings
from semiexact.morphisms import (Morphism, _table, compose, enumerate_hom, image_set,
                                 is_isomorphism, is_k_uniform, is_surjective, kernel_module,
                                 kernel_set)

DATA = Path(__file__).resolve().parent / "data"
SNAPSHOT = DATA / "harness_corpora_seed11.json"
CERTIFICATES = DATA / "certificates_seed11.json"


@pytest.fixture(scope="module")
def z2spec():
    return HarnessSpec(make_zmod(2), 4, seed=5, quota=25)


@pytest.fixture(scope="module")
def t2spec():
    return HarnessSpec(make_saturating_naturals(2), 3, seed=5, quota=25)


def _tables(diagrams):
    return [(tuple(sorted((k, f.map) for k, f in d.horizontals.items())),
             tuple(sorted((k, f.map) for k, f in d.verticals.items())))
            for d in diagrams]


def test_generation_deterministic(z2spec):
    a = gen_snake(z2spec)
    b = gen_snake(HarnessSpec(make_zmod(2), 4, seed=5, quota=25))
    assert _tables(a) == _tables(b)
    c = gen_snake(HarnessSpec(make_zmod(2), 4, seed=6, quota=25))
    assert _tables(a) != _tables(c)  # seed actually shuffles


def test_lemma_short_clauses(z2spec, t2spec):
    for spec in (z2spec, t2spec):
        for direction in (1, 2, 3):
            ds = gen_lemma_short(spec, direction)
            assert len(ds) >= spec.quota
            assert all(verify_lemma_short(d, direction).ok for d in ds)


def test_lemma_diagram_clauses(z2spec, t2spec):
    for clause in ("1a", "1b", "2a", "2b", "3"):
        for spec in (z2spec, t2spec):
            ds = gen_lemma_diagram(spec, clause)
            assert len(ds) >= 5, (clause, spec.semiring.name)
            assert all(verify_lemma_diagram(d, clause).ok for d in ds)


def test_short_five_and_corollary(z2spec):
    ds = gen_short_five(z2spec)
    assert len(ds) >= z2spec.quota
    assert all(verify_short_five(d).ok for d in ds)
    for clause in (1, 2):
        ds = gen_short_five_half(z2spec, clause)
        assert len(ds) >= z2spec.quota
        assert all(verify_short_five_half(d, clause).ok for d in ds)


def test_five_family(z2spec):
    for clause in ("1a", "1b", "2", "3"):
        ds = gen_five_parts(z2spec, clause)
        assert len(ds) >= z2spec.quota
        assert all(verify_five_parts(d, clause).ok for d in ds)
    for clause in (1, 2, 3):
        ds = gen_five(z2spec, clause)
        assert len(ds) >= z2spec.quota
        assert all(verify_five(d, clause).ok for d in ds)


def test_nine_family(z2spec, t2spec):
    for clause in (1, 2):
        for spec in (z2spec, t2spec):
            ds = gen_nine_first(spec, clause)
            assert len(ds) >= 5
            assert all(verify_nine_first(d, clause).ok for d in ds)
            ds = gen_nine_third(spec, clause)
            assert len(ds) >= 5
            assert all(verify_nine_third(d, clause).ok for d in ds)
    for direction in ("first-from-third", "third-from-first", "iff"):
        ds = gen_nine(z2spec, direction)
        assert len(ds) >= z2spec.quota
        assert all(verify_nine(d, direction).ok for d in ds)


def test_snake_family(z2spec, t2spec):
    for spec in (z2spec, t2spec, HarnessSpec(make_boolean(), 4, seed=5, quota=25)):
        ds = gen_snake(spec)
        assert len(ds) >= spec.quota
        results = [snake(d) for d in ds]
        assert all(r.ok for r in results)


def test_gen_nine_defaults_to_iff():
    """gen_nine, like verify_nine, defaults to the nine.iff clause."""
    spec = HarnessSpec(make_zmod(2), 4, seed=11, quota=4)
    default, iff = gen_nine(spec), gen_nine(spec, "iff")
    assert len(default) == spec.quota
    assert [d.name for d in default] == [d.name for d in iff]
    assert _tables(default) == _tables(iff)
    assert all(verify_nine(d).ok for d in default)


def test_harness_spec_type_hints_resolve():
    assert typing.get_type_hints(HarnessSpec)["semiring"] is Semiring


@pytest.mark.parametrize("n", [0, 1, 2, 7, 1000])
def test_permutation_yields_each_index_once(n):
    for seed, tag in ((0, "t"), (11, "snake"), (5, "fd1a")):
        assert sorted(harness._permutation(n, seed, tag)) == list(range(n))


def test_permutation_is_lazy():
    """The first index of a 10**12-long permutation comes back at once: the
    permutation is drawn as it is consumed, never materialised."""
    first = next(harness._permutation(10**12, 0, "t"))
    assert 0 <= first < 10**12


@pytest.mark.parametrize("n_left, n_right", [(0, 0), (0, 4), (4, 0), (1, 1), (1, 6),
                                             (6, 1), (7, 3), (40, 25)])
def test_shuffled_pairs_is_the_materialised_shuffle(n_left, n_right):
    left = [f"l{i}" for i in range(n_left)]
    right = [f"r{i}" for i in range(n_right)]
    for seed, tag in ((0, "t"), (11, "snake"), (5, "fd1a")):
        assert list(harness._shuffled_pairs(left, right, seed, tag)) == \
            list(harness._shuffled([(l, r) for l in left for r in right], seed, tag))


@pytest.mark.parametrize("name, clause", [("gen_five_parts", "2"), ("gen_five", 1)])
def test_draws_scale_with_candidates_used(monkeypatch, name, clause):
    """A 2x5 generator stops after a few hundred candidates at most; its
    sampler must not draw for the 360,000 row pairs it never looks at."""
    draws = 0
    randrange = random.Random.randrange

    def counted(self, *args, **kwargs):
        nonlocal draws
        draws += 1
        return randrange(self, *args, **kwargs)
    spec = HarnessSpec(make_zmod(2), 4, seed=11, quota=4)
    monkeypatch.setattr(random.Random, "randrange", counted)
    assert len(getattr(harness, name)(spec, clause)) == spec.quota
    assert 0 < draws < 1000


def test_gen_nine_builds_each_quotient_once(monkeypatch):
    """The 3x3 quotient row reads each vertical's image once per generator,
    and takes its Bourne quotient from the structure cache, keyed by
    (codomain table, image): one Bourne congruence per pair, though distinct
    verticals share pairs (at seed 11, quota 8: nine verticals, six pairs)."""
    spec = HarnessSpec(make_zmod(2), 4, seed=11, quota=8)
    # the row pools index maps by image too; build them before counting
    harness._exact_rows(spec.semiring, spec.max_size, injective=True, surjective=True)
    built, asked, imaged = [], [], []
    bourne, quotient, image = (morphisms.bourne_congruence, harness.bourne_quotient,
                               harness.image_set)

    def counted_bourne(L):
        built.append((L.parent, L.members))
        return bourne(L)

    def counted_quotient(M, members):
        asked.append((M, members))
        return quotient(M, members)

    def counted_image(a):
        imaged.append(a)
        return image(a)
    monkeypatch.setattr(morphisms, "bourne_congruence", counted_bourne)
    monkeypatch.setattr(harness, "bourne_quotient", counted_quotient)
    monkeypatch.setattr(harness, "image_set", counted_image)
    monkeypatch.setattr(morphisms, "_substructures",
                        lru_cache(maxsize=None)(morphisms._substructures.__wrapped__))
    assert len(gen_nine(spec)) == 8
    assert len(set(imaged)) == len(imaged) == len(asked)
    assert len(set(built)) == len(built)
    assert 0 < len(built) < len(asked)


@pytest.mark.parametrize("field, value", [("quota", 0), ("quota", -2), ("max_size", 0)])
def test_harness_spec_rejects_nonpositive_bounds(field, value):
    with pytest.raises(ParameterError, match=field):
        HarnessSpec(make_zmod(2), **{"max_size": 3, field: value})


def _compose_filter(spec, rows_top, rows_bottom, tag, tests=()):
    """Square filling by composing every candidate with every arrow it
    meets (morphisms._table, the table of a composite): the reference for
    the hash join in _two_row_join, over rows (f, g) or (d, f, g, h). With
    tests, only the grids on whose i-th part tests[i] passes wherever it is
    not None; a pair whose rows fail is not filled."""
    def passes(parts):
        return all(t is None or t(x) for t, x in zip(tests, parts))
    pairs = [(r1, r2) for r1 in rows_top for r2 in rows_bottom]
    for top, bottom in harness._shuffled(pairs, spec.seed, tag):
        if not passes(top + bottom):
            continue
        wide = len(top) == 4
        (f1, g1), (f2, g2) = top[wide:wide + 2], bottom[wide:wide + 2]
        if wide:
            (d1, h1), (d2, h2) = top[::3], bottom[::3]
        for a2 in harness._shuffled(enumerate_hom(f1.codomain, f2.codomain),
                                    spec.seed, tag + "a2"):
            left, right = _table(a2, f1), _table(g2, a2)
            lefts = [a1 for a1 in enumerate_hom(f1.domain, f2.domain)
                     if _table(f2, a1) == left]
            rights = [a3 for a3 in enumerate_hom(g1.codomain, g2.codomain)
                      if _table(a3, g1) == right]
            if wide:
                deltas = {a3: [c for c in enumerate_hom(h1.codomain, h2.codomain)
                               if _table(c, h1) == _table(h2, a3)] for a3 in rights}
            for a1 in lefts:
                if wide:
                    gammas = [c for c in enumerate_hom(d1.domain, d2.domain)
                              if _table(d2, c) == _table(a1, d1)]
                for a3 in rights:
                    if not wide:
                        if passes(top + bottom + (a1, a2, a3)):
                            yield top + bottom + (a1, a2, a3)
                        continue
                    for gamma in gammas:
                        for delta in deltas[a3]:
                            if passes(top + bottom + (gamma, a1, a2, a3, delta)):
                                yield top + bottom + (gamma, a1, a2, a3, delta)


@pytest.mark.parametrize("semiring, seed, width", [
    (make_zmod(2), 3, 3), (make_saturating_naturals(2), 3, 3),
    (make_zmod(2), 8, 3), (make_saturating_naturals(2), 8, 3), (make_zmod(2), 3, 5)],
    ids=["3-Z2", "3-T2", "8-Z2", "8-T2", "3-Z2-2x5"])
def test_row_pairs_match_compose_filter(semiring, seed, width):
    """The join, on the exact pairs over short exact rows for 2x3 grids and
    on the exact five-term rows for 2x5 grids, yields the reference's grids
    in the reference's order."""
    spec = HarnessSpec(semiring, 3, seed=seed)
    if width == 3:
        top = harness._exact_pairs(semiring, 3)
        bottom = harness._exact_rows(semiring, 3, injective=True, surjective=True)
    else:
        top = bottom = harness._exact_5rows(semiring, 3)
    expected = list(_compose_filter(spec, top, bottom, "eq"))
    assert len(expected) > 30
    tests = (None,) * len(diagrams._PART_NAMES[2, width])
    assert list(harness._two_row_join(spec, top, bottom, "eq", tests)) == expected


def _sampled(rows, k=10):
    """About k rows spread over a pool, in pool order."""
    return rows[::len(rows) // k + 1]


@pytest.mark.parametrize("semiring, size", [
    (make_zmod(2), 4), (make_zmod(4), 4), (make_boolean(), 4), (make_saturating_naturals(2), 3)],
    ids=["Z2@4", "Z4@4", "B@4", "T2@3"])
def test_join_matches_compose_filter_on_every_clause(semiring, size, monkeypatch):
    """For every 2x3 and 2x5 clause, over rows sampled from its pools and
    with its single-part tests, the join yields what the compose filter
    yields that passes those tests, in the same order, at three seeds. The
    join drops a pair before indexing when a column beside the middle has
    no passing vertical, so it never indexes an empty square there, and
    keeps each column's passing verticals and each a2 order per join; the
    reference does neither."""
    indexed, square_index = [], harness._square_index

    def spy(top, bottom, c, n, homs):
        indexed.append((len(top), n, len(homs)))
        return square_index(top, bottom, c, n, homs)
    monkeypatch.setattr(harness, "_square_index", spy)
    for clause in (*CLAUSES.values(), diagrams._SNAKE_GATES):
        if clause.shape == (2, 3):
            top, bottom, guaranteed = harness._row_pools(semiring, size, clause.ids)
        elif clause.shape == (2, 5):
            top = bottom = harness._exact_5rows(semiring, size)
            guaranteed = {i for i in clause.ids if i.endswith("row exact")}
        else:
            continue
        tests, _ = clause.split(guaranteed)
        top, bottom = _sampled(top), _sampled(bottom)
        for seed in (0, 11, 97):
            spec = HarnessSpec(semiring, size, seed=seed)
            assert list(harness._two_row_join(spec, top, bottom, clause.tag, tests)) == \
                list(_compose_filter(spec, top, bottom, clause.tag, tests)), (clause.tag, seed)
    # a column beside the middle, whose neighbour n is the middle column
    # (k + 1) // 2 of a row of k arrows, is indexed only where a vertical passes
    assert indexed and all(size for k, n, size in indexed if n == (k + 1) // 2)


# Every generator, at seed 11 and quota 4. The stored digests of all but
# gen_lemma_short were recorded with the compose filter; gen_lemma_short's,
# once its rows no longer followed the string hash seed.
SNAPSHOT_CORPORA = (
    [("gen_lemma_short", c) for c in (1, 2, 3)]
    + [("gen_lemma_diagram", c) for c in ("1a", "1b", "2a", "2b", "3")]
    + [("gen_short_five", None)]
    + [("gen_short_five_half", c) for c in (1, 2)]
    + [("gen_five_parts", c) for c in ("1a", "1b", "2", "3")]
    + [("gen_five", c) for c in (1, 2, 3)]
    + [("gen_nine_first", c) for c in (1, 2)]
    + [("gen_nine_third", c) for c in (1, 2)]
    + [("gen_nine", c) for c in ("first-from-third", "third-from-first", "iff")]
    + [("gen_snake", None)])


@pytest.fixture(scope="module")
def snapshot_corpora():
    """{(key, pool): diagrams} for every SNAPSHOT_CORPORA entry over Z2 and T2."""
    specs = {"Z2": HarnessSpec(make_zmod(2), 4, seed=11, quota=4),
             "T2": HarnessSpec(make_saturating_naturals(2), 3, seed=11, quota=4)}
    out = {}
    for pool, spec in specs.items():
        for name, clause in SNAPSHOT_CORPORA:
            gen = getattr(harness, name)
            key = name if clause is None else f"{name}({clause})"
            out[key, pool] = gen(spec) if clause is None else gen(spec, clause)
    return out


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def test_corpora_match_snapshot(snapshot_corpora):
    expected = json.loads(SNAPSHOT.read_text(encoding="utf-8"))
    got = {}
    for (key, pool), ds in snapshot_corpora.items():
        got[f"{key}@{pool}"] = [len(ds), _digest(
            d.name + ":" + ";".join(",".join(map(str, a.map)) for _, a in
                                    sorted(d.horizontals.items())
                                    + sorted(d.verticals.items()))
            for d in ds)]
    assert got == expected


# Every clause verifier, by certificate name, with the grid it takes.
CLAUSE_VERIFIERS = (
    [(f"short.{k}", (2, 3), lambda d, k=k: verify_lemma_short(d, k)) for k in (1, 2, 3)]
    + [(f"diagram.{k}", (2, 3), lambda d, k=k: verify_lemma_diagram(d, k))
       for k in ("1a", "1b", "2a", "2b", "3")]
    + [(f"short-five-half.{k}", (2, 3), lambda d, k=k: verify_short_five_half(d, k))
       for k in (1, 2)]
    + [("short-five", (2, 3), verify_short_five)]
    + [(f"five-parts.{k}", (2, 5), lambda d, k=k: verify_five_parts(d, k))
       for k in ("1a", "1b", "2", "3")]
    + [(f"five.{k}", (2, 5), lambda d, k=k: verify_five(d, k)) for k in (1, 2, 3)]
    + [(f"nine-first.{k}", (3, 3), lambda d, k=k: verify_nine_first(d, k)) for k in (1, 2)]
    + [(f"nine-third.{k}", (3, 3), lambda d, k=k: verify_nine_third(d, k)) for k in (1, 2)]
    + [(f"nine.{k}", (3, 3), lambda d, k=k: verify_nine(d, k))
       for k in ("first-from-third", "third-from-first", "iff")])


def _certificate_line(verify, d):
    try:
        cert = verify(d)
    except HypothesisError as exc:
        return f"!{d.name}:{exc.assertion_id}|{exc.witness}"
    return (d.name + ":" + ";".join(f"{a.id}={a.ok}|{a.witness}" for a in cert.hypotheses)
            + "=>" + ";".join(f"{a.id}={a.ok}|{a.witness}" for a in cert.conclusions))


def test_corpus_arrows_equal_their_public_rebuilds(snapshot_corpora):
    """Every arrow of the seed-11 corpora, hom-set members, composites and
    factored maps alike, equals the validating constructor's Morphism on
    the same table and hashes as the field tuple does."""
    arrows = {a for ds in snapshot_corpora.values() for d in ds for a in d.parts()}
    assert len(arrows) > 100
    for a in arrows:
        rebuilt = Morphism(a.name, a.domain, a.codomain, a.map)
        assert rebuilt == a and hash(rebuilt) == hash(a)
        assert hash(a) == hash((a.name, a.domain, a.codomain, a.map))


@pytest.mark.parametrize("seed", [3, 29])
def test_single_part_tests_keep_the_whole_tuple_corpora(monkeypatch, seed):
    """Every snapshot clause over Z2 and T2, and the snake's gates: testing
    single-part hypotheses as their parts are drawn gives the corpora of the
    oracle, the unfiltered stream with every hypothesis tested on whole
    tuples."""
    specs = (HarnessSpec(make_zmod(2), 4, seed=seed, quota=4),
             HarnessSpec(make_saturating_naturals(2), 3, seed=seed, quota=4))
    gens = [(getattr(harness, name), clause) for name, clause in SNAPSHOT_CORPORA]

    def corpora():
        return [_tables(gen(spec) if clause is None else gen(spec, clause))
                for spec in specs for gen, clause in gens]
    split = corpora()

    def whole_tuple(clause, guaranteed):
        return (None,) * len(diagrams._PART_NAMES[clause.shape]), clause.filter(guaranteed)
    monkeypatch.setattr(diagrams.Clause, "split", whole_tuple)
    assert split == corpora()
    assert all(split) and sum(map(len, split)) > 3 * len(split)


def test_certificates_match_snapshot(snapshot_corpora):
    """Every clause verifier on every snapshot diagram of its grid shape,
    passing and failing gates alike: assertion ids, their order, ok flags and
    witnesses, or the id and witness of the first failed gate."""
    expected = json.loads(CERTIFICATES.read_text(encoding="utf-8"))
    got = {}
    for pool in ("Z2", "T2"):
        ds = [d for (_, p), corpus in snapshot_corpora.items() if p == pool
              for d in corpus]
        for lemma, shape, verify in CLAUSE_VERIFIERS:
            lines = [_certificate_line(verify, d) for d in ds
                     if (d.rows, d.cols) == shape]
            got[f"{lemma}@{pool}"] = [len(lines), sum(ln.startswith("!") for ln in lines),
                                      _digest(lines)]
    assert got == expected


def test_corpora_independent_of_hash_seed(src_env):
    """Every snapshot generator draws the same corpus whatever the string
    hash seed: one digest over all of them, from two fresh interpreters."""
    script = ("import hashlib\n"
              "from semiexact import harness\n"
              "from semiexact.core import make_zmod\n"
              "spec = harness.HarnessSpec(make_zmod(2), 4, seed=5, quota=3)\n"
              "h, n = hashlib.sha256(), 0\n"
              f"for name, clause in {SNAPSHOT_CORPORA!r}:\n"
              "    gen = getattr(harness, name)\n"
              "    for d in gen(spec) if clause is None else gen(spec, clause):\n"
              "        n += 1\n"
              "        h.update(repr((d.name, sorted((p, a.map) for p, a in d.horizontals.items()),\n"
              "                       sorted((p, a.map) for p, a in d.verticals.items())))\n"
              "                 .encode())\n"
              "print(n, h.hexdigest())\n")
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(src_env, PYTHONHASHSEED=hash_seed)
        outputs.append(subprocess.run([sys.executable, "-c", script], env=env,
                                      capture_output=True, text=True, check=True).stdout)
    assert outputs[0].split()[0] == str(3 * len(SNAPSHOT_CORPORA))
    assert outputs[0] == outputs[1]


# (entry point name, a clause its table family does not have)
UNKNOWN_CLAUSES = [("lemma_short", 7), ("lemma_diagram", "4"), ("short_five_half", 3),
                   ("five_parts", "1c"), ("five", 4), ("nine_first", 3), ("nine_third", 3),
                   ("nine", "x")]


@pytest.mark.parametrize("name, clause", UNKNOWN_CLAUSES)
def test_unknown_clause_rejected(z2spec, name, clause):
    """No generator falls back on another clause's corpus; verifiers keep
    raising StructureError."""
    with pytest.raises(ParameterError):
        getattr(harness, f"gen_{name}")(z2spec, clause)
    with pytest.raises(StructureError, match="unknown lemma"):
        getattr(diagrams, f"verify_{name}")(gen_short_five(z2spec)[0], clause)


# What the hand-picked 2x3 pools guarantee: exactness of an exact-pairs row;
# cancellative middles, a right exact top row and a left exact bottom row;
# or two short exact rows with cancellative middles.
_EXACT_ROWS = ("first row exact", "second row exact")
_HALF_ROWS = ("M1 cancellative", "M2 cancellative", "first row exact at middle",
              "first row: g surjective", "second row: f injective", "second row exact at middle")
_SHORT_FIVE_ROWS = _HALF_ROWS + ("first row: f injective", "second row: g surjective")

GUARANTEED = {"_EXACT_ROWS": _EXACT_ROWS, "_HALF_ROWS": _HALF_ROWS,
              "_SHORT_FIVE_ROWS": _SHORT_FIVE_ROWS, "_QUOTIENT_ROW": harness._QUOTIENT_ROW,
              "_ROW_POOLS": harness._ROW_POOLS}


@pytest.mark.parametrize("guaranteed", list(GUARANTEED))
def test_guaranteed_ids_are_table_hypotheses(guaranteed):
    """A misspelt guaranteed id would silently leave its hypothesis in the
    filter, or, in a hand-kept tuple, drop out of the comparison with the
    pools _ROW_POOLS chooses; every one must name a hypothesis of some
    clause."""
    ids = set().union(*(c.ids for c in CLAUSES.values()))
    assert set(GUARANTEED[guaranteed]) <= ids


def _hand_picked_pools(semiring, n, key):
    """(top, bottom, guaranteed) as three generators once picked them by hand
    for the 2x3 clause `key`: the exact pairs for a row the clause assumes
    exact and the exact pairs plus _any_rows for any other; right and left
    exact rows with cancellative middles for short-five-half; short exact
    rows with cancellative middles for short-five."""
    exact = harness._exact_pairs(semiring, n)
    if key.startswith("short-five-half"):
        return (harness._exact_rows(semiring, n, surjective=True, cancellative=True),
                harness._exact_rows(semiring, n, injective=True, cancellative=True), _HALF_ROWS)
    if key == "short-five":
        rows = harness._exact_rows(semiring, n, injective=True, surjective=True,
                                   cancellative=True)
        return rows, rows, _SHORT_FIVE_ROWS
    any_rows = tuple(dict.fromkeys(exact + harness._any_rows(semiring, n)))
    return (*(exact if row in CLAUSES[key].ids else any_rows for row in _EXACT_ROWS), _EXACT_ROWS)


TWO_BY_THREE = [key for key, clause in CLAUSES.items() if clause.shape == (2, 3)]


@pytest.mark.parametrize("semiring", [make_zmod(2), make_saturating_naturals(2)],
                         ids=lambda s: s.name)
def test_row_pools_are_the_hand_picked_pools(semiring):
    """For every 2x3 clause, the pools its hypotheses choose through
    _ROW_POOLS are the hand-picked ones, the same maps in the same order (so
    the shuffles draw the same pairs), and they guarantee the hand-kept ids
    that the clause has. On T2 the cancellative pools are proper subsets."""
    assert len(TWO_BY_THREE) == 11
    for key in TWO_BY_THREE:
        ids = CLAUSES[key].ids
        top, bottom, guaranteed = harness._row_pools(semiring, 3, ids)
        hand_top, hand_bottom, hand_guaranteed = _hand_picked_pools(semiring, 3, key)
        assert (top, bottom) == (hand_top, hand_bottom), key  # maps compare by name too
        assert guaranteed == set(hand_guaranteed) & ids, key
    if semiring.name == "T2":
        half_top = harness._row_pools(semiring, 3, CLAUSES["short-five-half.1"].ids)[0]
        assert 0 < len(half_top) < len(harness._exact_rows(semiring, 3, surjective=True))


def test_dropped_exactness_widens_the_row_pool():
    """short-five-half.1 without `first row exact at middle` draws its top
    row from every row with g∘f = 0; `M1 cancellative` and `first row: g
    surjective` then stay filters, so every diagram meets them, and some top
    row is not exact."""
    full = CLAUSES["short-five-half.1"]
    dropped = "first row exact at middle"
    widened = diagrams.Clause((2, 3), "cs5.1-widened",
                              [h.id for h in full.hypotheses if h.id != dropped], ())
    semiring = make_zmod(2)
    top, bottom, guaranteed = harness._row_pools(semiring, 3, widened.ids)
    assert top == tuple(dict.fromkeys(harness._exact_pairs(semiring, 3)
                                      + harness._any_rows(semiring, 3)))
    assert bottom == harness._row_pools(semiring, 3, full.ids)[1]
    assert guaranteed == {"M2 cancellative", "second row: f injective",
                          "second row exact at middle"}
    ds = harness._gen_2x3(HarnessSpec(semiring, 3, seed=5, quota=5), widened)
    assert len(ds) == 5
    tests = {h.id: h.test for h in full.hypotheses}
    for d in ds:
        parts = d.parts()
        assert tests["M1 cancellative"](parts) and tests["first row: g surjective"](parts)
        assert widened.filter(())(parts)
    assert not all(tests[dropped](d.parts()) for d in ds)


@pytest.mark.parametrize("semiring", [make_zmod(2), make_saturating_naturals(2)],
                         ids=lambda s: s.name)
def test_snake_pools_hold_the_gates_gen_snake_skips(semiring):
    """gen_snake leaves out of its filter the snake gates that choose a row
    pool in _ROW_POOLS, the right exact top row and the left exact bottom
    row; every row of its two pools must satisfy them."""
    tops, bottoms, guaranteed = harness._row_pools(semiring, 3, diagrams._SNAKE_GATES.ids)
    assert guaranteed == set(diagrams._RIGHT_LEFT)
    assert tops and bottoms
    pairs = [(top, bottoms[0]) for top in tops] + [(tops[0], bottom) for bottom in bottoms]
    for h in diagrams._SNAKE_GATES.hypotheses:
        if h.id in guaranteed:
            assert all(h.test(top + bottom + (None,) * 3) for top, bottom in pairs), h.id


SNAKE_SNAPSHOT = DATA / "snake_seed11.json"


def _snake_records(spec):
    """Per gen_snake diagram: name, maps of the induced morphisms and delta
    (name, domain, codomain and table) and every certificate line."""
    out = []
    for d in gen_snake(spec):
        r = snake(d)
        out.append({
            "diagram": d.name,
            "maps": [f"{m.name}: {m.domain.name} -> {m.codomain.name} = "
                     + ",".join(map(str, m.map))
                     for m in (r.f_k, r.g_k, r.f_c, r.g_c, r.delta)],
            "certificates": [c.lemma + ":" + ";".join(f"{a.id}={a.ok}|{a.witness}"
                                                      for a in c.conclusions)
                             for c in r.certificates]})
    return out


def test_snake_matches_snapshot():
    """The snake construction on gen_snake's seed-11, quota-4 corpora over
    Z2 (size 4) and T2 (size 3)."""
    specs = {"Z2": HarnessSpec(make_zmod(2), 4, seed=11, quota=4),
             "T2": HarnessSpec(make_saturating_naturals(2), 3, seed=11, quota=4)}
    got = {pool: _snake_records(spec) for pool, spec in specs.items()}
    assert got == json.loads(SNAKE_SNAPSHOT.read_text(encoding="utf-8"))


# The row pools as they were once built map by map, right to left, with a
# named kernel module, hom-set and isomorphism search per map: the references
# for the pools that _exact_pairs and _any_rows_stream list. The 2x5 and
# snake references name each arrow after the composite that builds it, the
# pools after its hom-set, so those two compare by domain, codomain and
# table.

def _reference_exact_pairs(semiring, max_size):
    """(f, g) with image(f) = Ker(g) and g k-uniform, over the module pool."""
    mods = harness._pool(semiring, max_size)
    out = []
    for M in mods:
        for N in mods:
            for g in enumerate_hom(M, N):
                if not is_k_uniform(g):
                    continue
                ker = kernel_set(g)
                for L in mods:
                    for f in enumerate_hom(L, M):
                        if image_set(f) == ker:
                            out.append((f, g))
    return tuple(out)


def _reference_exact_5rows(semiring, max_size, cap=600):
    """Rows U -d-> L -f-> M -g-> N -h-> V exact at L, M, N, built right to left."""
    mods = harness._pool(semiring, max_size)
    rows = []
    for N in mods:
        for V in mods:
            for h in enumerate_hom(N, V):
                if not is_k_uniform(h):
                    continue
                kh, kh_incl = kernel_module(h)
                for M in mods:
                    for q in enumerate_hom(M, kh):
                        if not (is_surjective(q) and is_k_uniform(q)):
                            continue
                        g = compose(kh_incl, q)
                        kg, kg_incl = kernel_module(g)
                        for L in mods:
                            for q2 in enumerate_hom(L, kg):
                                if not (is_surjective(q2) and is_k_uniform(q2)):
                                    continue
                                f = compose(kg_incl, q2)
                                kf, kf_incl = kernel_module(f)
                                for U in mods:
                                    for q3 in enumerate_hom(U, kf):
                                        if not is_surjective(q3):
                                            continue
                                        d = compose(kf_incl, q3)
                                        rows.append((d, f, g, h))
                                        if len(rows) >= cap:
                                            return tuple(rows)
    return tuple(rows)


def _automorphisms(M):
    return [h for h in enumerate_hom(M, M) if is_isomorphism(h)]


def _reference_snake_left_rows(semiring, max_size, cap=math.inf):
    """Rows 0 -> L2 -f2-> M2 -g2-> N2 with f2 injective onto Ker(g2)."""
    mods = harness._pool(semiring, max_size)
    rows = []
    for M in mods:
        for N in mods:
            for g in enumerate_hom(M, N):
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


def _pool_rows(rows, named=True):
    """Each row's arrows as (name, domain, codomain, table), less the name
    where named is False."""
    return [tuple((a.name, a.domain, a.codomain, a.map)[not named:] for a in row)
            for row in rows]


def _snake_left_stream(semiring, max_size):
    """The snake's left exact bottom rows, the exact pairs with f injective."""
    return harness._exact_rows(semiring, max_size, injective=True)


# (pool, its reference, whether their arrows' names agree)
REFERENCE_POOLS = ((harness._exact_pairs, _reference_exact_pairs, True),
                   (harness._exact_5rows, _reference_exact_5rows, False),
                   (_snake_left_stream, _reference_snake_left_rows, False))
POOL_CASES = ([(make_zmod(2), 4), (make_zmod(4), 4), (make_boolean(), 4),
               (make_saturating_naturals(2), 3)]
              + [(s, 3) for s in builtin_semirings().values()])


@pytest.mark.parametrize("semiring, size", POOL_CASES,
                         ids=[f"{s.name}@{n}" for s, n in POOL_CASES])
def test_row_pools_match_named_builders(semiring, size):
    """The three row pools equal the map-by-map builders row by row, in the
    same order: every arrow's domain, codomain and table, and for the exact
    pairs its name too."""
    for built, reference, named in REFERENCE_POOLS:
        expected = _pool_rows(reference(semiring, size), named)
        assert _pool_rows(built(semiring, size), named) == expected, built.__name__


def test_exact_pairs_match_named_builder_at_nat4(nat4_universe):
    """nat4@4 has 16,314 exact pairs; the indexed pool lists each as the
    map-by-map builder does, and the 2x5 and snake pools read from it
    follow their builders too."""
    semiring = nat4_universe[0].semiring
    assert len(harness._exact_pairs(semiring, 4)) == 16314
    for built, reference, named in REFERENCE_POOLS:
        expected = _pool_rows(reference(semiring, 4), named)
        assert _pool_rows(built(semiring, 4), named) == expected, built.__name__


@pytest.mark.parametrize("semiring, size", POOL_CASES[:4],
                         ids=[f"{s.name}@{n}" for s, n in POOL_CASES[:4]])
def test_row_pool_arrows_are_hom_set_members(semiring, size):
    """Every arrow of every row pool is the member of its hom-set with its
    table, under the name enumerate_hom gives it, not a composite's."""
    pools = (harness._exact_pairs, harness._any_rows, harness._exact_5rows,
             _snake_left_stream)
    arrows = {a for pool in pools for row in pool(semiring, size) for a in row}
    members = {}
    for a in arrows:
        if (a.domain, a.codomain) not in members:
            members[a.domain, a.codomain] = {h.map: h for h in enumerate_hom(a.domain,
                                                                              a.codomain)}
        member = members[a.domain, a.codomain][a.map]
        assert (a.name, a) == (member.name, member)
    assert arrows


def _reference_any_rows(semiring, max_size):
    """(f, g) with g∘f = 0 over the module pool, each composite built and
    compared with zero."""
    mods = harness._pool(semiring, max_size)
    return [(f, g) for M in mods for N in mods for g in enumerate_hom(M, N)
            for L in mods for f in enumerate_hom(L, M)
            if set(compose(g, f).map) == {N.zero}]


# (capped pool, its uncapped stream, the cap)
POOL_VIEWS = ((harness._any_rows, harness._any_rows_stream, 400),
              (harness._exact_5rows, harness._exact_5rows_stream, 600))
VIEW_CASES = [(make_zmod(2), 4), (make_boolean(), 4), (make_saturating_naturals(2), 3)]


@pytest.mark.parametrize("semiring, size", VIEW_CASES,
                         ids=[f"{s.name}@{n}" for s, n in VIEW_CASES])
def test_capped_pools_are_views_over_their_streams(semiring, size):
    """Each capped pool is the first rows of its ordered stream, and the
    stream goes on past the cap where it has more rows (B@4 has 1,919 rows
    with g∘f = 0 and 9,007 exact 5-rows)."""
    lengths = []
    for view, stream, cap in POOL_VIEWS:
        rows = tuple(stream(semiring, size))
        assert tuple(view(semiring, size)) == rows[:cap], view.__name__
        lengths.append(len(rows))
    if semiring.name == "B":
        assert lengths == [1919, 9007]


@pytest.mark.parametrize("semiring", [make_zmod(2), make_saturating_naturals(2)],
                         ids=lambda s: s.name)
def test_streams_match_uncapped_references(semiring):
    """Each uncapped stream equals its map-by-map reference run with no
    cap, row by row: every arrow's domain, codomain and table, and for the
    rows with g∘f = 0 its name too."""
    for stream, reference, named in (
            (harness._any_rows_stream, _reference_any_rows, True),
            (harness._exact_5rows_stream, partial(_reference_exact_5rows, cap=math.inf), False),
            (_snake_left_stream, partial(_reference_snake_left_rows, cap=math.inf), False)):
        expected = _pool_rows(reference(semiring, 3), named)
        assert expected and _pool_rows(stream(semiring, 3), named) == expected, stream.__name__
