"""Acceptance suite: one test per criterion, one printed PASS line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines as the
criteria complete. Tolerances are exact (all checks are discrete); every
quota and size bound is pinned here.
"""

import time
from contextlib import contextmanager

import pytest

from semiexact.core import (all_subsemimodules, make_boolean, make_product,
                            make_saturating_naturals, make_truncated_minplus,
                            make_zmod, monoid_semiring, subtractive_closure_set,
                            validate_semimodule, validate_semiring)
from semiexact.diagrams import (snake, verify_short_five_half, verify_five,
                                verify_five_parts, verify_lemma_diagram,
                                verify_lemma_short, verify_nine, verify_nine_first,
                                verify_nine_third, verify_short_five)
from semiexact.enumeration import (Counterexample, ExhaustionReport, UniverseSpec,
                                   abelian_snake_delta, enumerate_semimodules,
                                   is_monomorphism, replay_counterexample,
                                   search_counterexample, universe_with_free_module)
from semiexact.exactness import ker_coker_sequence, subobject_character
from semiexact.fixtures import builtin_modules, builtin_semirings
from semiexact.harness import (HarnessSpec, gen_short_five_half, gen_five,
                               gen_five_parts, gen_lemma_diagram, gen_lemma_short,
                               gen_nine, gen_nine_first, gen_nine_third,
                               gen_short_five, gen_snake)
from semiexact.morphisms import (classify, cokernel, enumerate_hom, image_set,
                                 is_injective, is_surjective, kernel, kernel_set)
from semiexact.quotients import bourne_congruence, quotient

from conftest import mutated_module, mutated_semiring


@contextmanager
def criterion(n, label):
    started = time.time()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {n}: {label}")
        raise
    print(f"PASS criterion {n}: {label} ({time.time() - started:.1f}s)")


NAT4 = monoid_semiring(4)


@pytest.fixture(scope="module")
def universe():
    return enumerate_semimodules(UniverseSpec(NAT4, 4)).modules


@pytest.fixture(scope="module")
def all_morphisms(universe):
    out = []
    for M in universe:
        for N in universe:
            out.extend(enumerate_hom(M, N))
    return out


def test_criterion_1_axiom_suite():
    with criterion(1, "axiom suite on builders plus located mutation failures"):
        started = time.time()
        fixtures = dict(builtin_semirings())
        fixtures["BxZ4"] = make_product(make_boolean(), make_zmod(4))
        for name, s in fixtures.items():
            assert validate_semiring(s).ok, name
        for name, m in builtin_modules().items():
            assert validate_semimodule(m).ok, name

        mutants = []
        for s in (make_boolean(), make_zmod(2), make_zmod(4),
                  make_saturating_naturals(2), make_truncated_minplus(1)):
            for table in ("add", "mul"):
                for i in range(s.size):
                    for j in range(s.size):
                        for v in range(s.size):
                            if getattr(s, table)[i][j] != v:
                                bad = mutated_semiring(s, table, i, j, v)
                                if not validate_semiring(bad).ok:
                                    mutants.append(bad)
        from semiexact.fixtures import monoid_fixture
        for mod in (monoid_fixture("sat3"), monoid_fixture("max3")):
            for i in range(mod.size):
                for j in range(mod.size):
                    for v in range(mod.size):
                        if mod.add[i][j] != v:
                            bad = mutated_module(mod, "add", i, j, v)
                            if not validate_semimodule(bad).ok:
                                mutants.append(bad)
        assert len(mutants) >= 20, len(mutants)
        for bad in mutants:
            report = (validate_semiring(bad) if hasattr(bad, "mul")
                      else validate_semimodule(bad))
            assert not report.ok
            assert all(v.witness for v in report.violations), bad.name
        assert time.time() - started < 1.0, "criterion 1 must run in under a second"


def test_criterion_2_costead_equivalences(all_morphisms):
    with criterion(2, "k/i/uniform flags match the canonical-map comparisons "
                      f"on {len(all_morphisms)} morphisms"):
        for f in all_morphisms:
            c = classify(f)

            q = quotient(f.domain, bourne_congruence(kernel(f)))
            table = {}
            for x in f.domain.elements():
                table.setdefault(q.projection.map[x], set()).add(f.map[x])
            well_defined = all(len(v) == 1 for v in table.values())
            img = image_set(f)
            k_oracle = well_defined and len({min(v) for v in table.values()}) \
                == q.quotient.size == len(img)
            assert c.k_uniform == k_oracle, f.name

            i_oracle = kernel_set(cokernel(f).projection) == img
            assert c.i_uniform == i_oracle, f.name

            closure = subtractive_closure_set(f.codomain, img)
            u_oracle = k_oracle and img == closure
            assert c.uniform == u_oracle, f.name


def test_criterion_3_inj_surj(universe, all_morphisms):
    with criterion(3, "mono iff injective; regular-epi iff surjective iff "
                      "(zero cokernel and i-uniform); semi-mono witness at size <= 3"):
        pool = universe_with_free_module(UniverseSpec(NAT4, 4))
        for f in all_morphisms:
            assert is_monomorphism(f, pool) == is_injective(f), f.name
            c = classify(f)
            proxy = cokernel(f).quotient.size == 1 and c.i_uniform
            assert proxy == c.surjective == is_surjective(f), f.name
        found = search_counterexample("semi-mono-not-mono", UniverseSpec(NAT4, 3))
        assert isinstance(found, Counterexample)
        assert found.witnesses[0].domain.size <= 3
        assert replay_counterexample(found)


def test_criterion_4_ker_coker(all_morphisms):
    with criterion(4, "five-term kernel-cokernel sequence semi-exact always, "
                      "exact exactly for uniform morphisms"):
        for f in all_morphisms:
            r = ker_coker_sequence(f)  # internal asserts re-check both claims
            assert r.verdict.semi_exact
            assert r.verdict.exact == classify(f).uniform, f.name


def test_criterion_5_subobjects(universe):
    with criterion(5, "projection kernels are closures; the five subobject "
                      "characterizations agree; non-subtractive witness found"):
        non_subtractive = 0
        subs_seen = 0
        for m in universe:
            for sub in all_subsemimodules(m):
                subs_seen += 1
                ker = kernel_set(quotient(m, bourne_congruence(sub)).projection)
                assert ker == set(subtractive_closure_set(m, sub.members))
                ch = subobject_character(sub)  # asserts the 2(c) equivalences
                assert ch.equivalent
                if not ch.normal:
                    non_subtractive += 1
        assert non_subtractive >= 1
        assert subs_seen > 27


CLAUSE_QUOTA = 100


def _run_clause(label, diagrams, verifier):
    assert len(diagrams) >= CLAUSE_QUOTA, f"{label}: only {len(diagrams)} instances"
    for d in diagrams:
        cert = verifier(d)
        assert cert.ok, f"{label} failed on {d.name}: {cert.failures()}"


def test_criterion_6_lemma_harness():
    with criterion(6, f"every lemma clause verified on >= {CLAUSE_QUOTA} "
                      "generated hypothesis-satisfying diagrams"):
        z2 = HarnessSpec(make_zmod(2), 4, seed=11, quota=CLAUSE_QUOTA + 10)
        z4 = HarnessSpec(make_zmod(4), 4, seed=11, quota=CLAUSE_QUOTA + 10)
        t2 = HarnessSpec(make_saturating_naturals(2), 3, seed=11, quota=60)
        b = HarnessSpec(make_boolean(), 4, seed=11, quota=60)

        for direction in (1, 2, 3):
            ds = gen_lemma_short(z2, direction) + gen_lemma_short(t2, direction)
            _run_clause(f"short.{direction}", ds,
                        lambda d, k=direction: verify_lemma_short(d, k))
        for clause in ("1a", "1b", "2a", "2b", "3"):
            # cancellative hypotheses are near-vacuous over join-semilattices,
            # so clause 2b draws its variety from the ring pools instead of B
            extra = gen_lemma_diagram(z4 if clause == "2b" else b, clause)
            ds = gen_lemma_diagram(z2, clause) + extra
            _run_clause(f"diagram.{clause}", ds,
                        lambda d, k=clause: verify_lemma_diagram(d, k))
        _run_clause("short-five", gen_short_five(z2) + gen_short_five(z4),
                    verify_short_five)
        for clause in (1, 2):
            _run_clause(f"short-five-half.{clause}",
                        gen_short_five_half(z2, clause) + gen_short_five_half(z4, clause),
                        lambda d, k=clause: verify_short_five_half(d, k))
        for clause in ("1a", "1b", "2", "3"):
            _run_clause(f"five-parts.{clause}", gen_five_parts(z2, clause),
                        lambda d, k=clause: verify_five_parts(d, k))
        for clause in (1, 2, 3):
            _run_clause(f"five.{clause}", gen_five(z2, clause),
                        lambda d, k=clause: verify_five(d, k))
        for clause in (1, 2):
            _run_clause(f"nine-first.{clause}",
                        gen_nine_first(z2, clause) + gen_nine_first(t2, clause),
                        lambda d, k=clause: verify_nine_first(d, k))
            _run_clause(f"nine-third.{clause}",
                        gen_nine_third(z2, clause) + gen_nine_third(t2, clause),
                        lambda d, k=clause: verify_nine_third(d, k))
        for direction in ("first-from-third", "third-from-first", "iff"):
            _run_clause(f"nine.{direction}",
                        gen_nine(z2, direction) + gen_nine(z4, direction),
                        lambda d, k=direction: verify_nine(d, k))


SNAKE_QUOTA_EACH = 130


def test_criterion_7_snake():
    with criterion(7, f"snake lemma on >= {4 * SNAKE_QUOTA_EACH} generated "
                      "diagrams; ring instances match the abelian oracle"):
        specs = [("B", HarnessSpec(make_boolean(), 4, seed=13, quota=SNAKE_QUOTA_EACH)),
                 ("Z2", HarnessSpec(make_zmod(2), 4, seed=13, quota=SNAKE_QUOTA_EACH)),
                 ("Z4", HarnessSpec(make_zmod(4), 4, seed=13, quota=SNAKE_QUOTA_EACH)),
                 ("T2", HarnessSpec(make_saturating_naturals(2), 3, seed=13,
                                    quota=SNAKE_QUOTA_EACH))]
        total = 0
        clause5_applicable = 0
        for name, spec in specs:
            diagrams = gen_snake(spec)
            assert len(diagrams) >= SNAKE_QUOTA_EACH, name
            for d in diagrams:
                r = snake(d)
                assert r.ok, f"{name}: {d.name}"
                total += 1
                if r.cert_four_term is not None:
                    clause5_applicable += 1
                if name in ("Z2", "Z4"):
                    f1, g1 = d.horizontal(0, 0), d.horizontal(0, 1)
                    f2, g2 = d.horizontal(1, 0), d.horizontal(1, 1)
                    a1, a2, a3 = (d.vertical(0, c) for c in range(3))
                    cosets, delta_ids, ker_elems = abelian_snake_delta(
                        f1, g1, f2, g2, a1, a2, a3)
                    assert tuple(ker_elems) == r.kernel_inclusions[2].map
                    assert tuple(r.cokernels[0].congruence.class_members()) == cosets
                    assert r.delta.map == delta_ids
        assert total >= 500
        assert clause5_applicable >= 100


def test_criterion_8_counterexample_catalog():
    with criterion(8, "stored counterexamples replay; the cancellative-epi "
                      "search exhausts at size <= 4, deterministically"):
        spec3 = UniverseSpec(NAT4, 3)
        found_props = ("non-subtractive-subsemimodule", "semi-mono-not-mono",
                       "proper-exact-not-exact", "semi-exact-not-proper-exact")
        for prop in found_props:
            cx = search_counterexample(prop, spec3)
            assert isinstance(cx, Counterexample), prop
            assert replay_counterexample(cx), prop
            again = search_counterexample(prop, spec3)
            assert isinstance(again, Counterexample)
            assert again.description == cx.description

        spec4 = UniverseSpec(NAT4, 4)
        outcome = search_counterexample("cancellative-epi-not-surjective", spec4)
        assert isinstance(outcome, ExhaustionReport)
        assert outcome == search_counterexample("cancellative-epi-not-surjective",
                                                spec4)
        bim = search_counterexample("non-i-uniform-bimorphism-cs", spec4)
        assert isinstance(bim, ExhaustionReport)
        mono = search_counterexample("mono-not-injective", spec3)
        assert isinstance(mono, ExhaustionReport)


def test_criterion_9_cli_round_trip(tmp_path):
    with criterion(9, "parse/serialize/parse identity and byte-identical reports"):
        from semiexact.cli import main
        from semiexact.workspace import parse, parse_files, serialize

        ws = parse_files(["fixtures/demo.sx"])
        assert parse(serialize(ws)) == ws

        corpus = tmp_path / "corpus.sx"
        assert main(["corpus", "T2", "--max-size", "3",
                     "--corpus", str(corpus), "--quiet"]) == 0
        ws2 = parse_files([corpus])
        assert parse(serialize(ws2)) == ws2

        r1, r2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
        for path in (r1, r2):
            assert main(["snake", "D", "fixtures/demo.sx", "--report",
                         str(path), "--quiet"]) == 0
        assert r1.read_bytes() == r2.read_bytes()
        s1, s2 = tmp_path / "s1.txt", tmp_path / "s2.txt"
        for path in (s1, s2):
            assert main(["search", "semi-mono-not-mono", "nat3", "--max-size", "3",
                         "--seed", "7", "--report", str(path), "--quiet"]) == 1
        assert s1.read_bytes() == s2.read_bytes()
