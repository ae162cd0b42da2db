"""Semiring/semimodule validation, cancellativity, subtractive closure, builders."""

from itertools import product

import pytest
from hypothesis import given, strategies as st

from semiexact.core import (Element, Semimodule, Semiring, Subsemimodule, _cancellable,
                            _completions,
                            all_subsemimodules, generators, is_cancellable,
                            is_cancellative_module, is_subtractive, make_boolean,
                            make_natural_quotient, make_saturating_naturals,
                            make_truncated_minplus, make_upper_triangular_boolean,
                            make_zmod, module_from_monoid,
                            monoid_semiring, natural_action, self_module,
                            subtractive_closure, subtractive_closure_set,
                            validate_semimodule, validate_semiring, zero_module)
from semiexact.enumeration import (UniverseSpec, enumerate_semimodules,
                                   enumerate_semimodules_naive)
from semiexact.errors import ParameterError, StructureError
from semiexact.fixtures import builtin_semirings

from conftest import all_semiring_fixtures, mutated_module, mutated_semiring, oracle_closure, \
    oracle_semiring_laws, oracle_semimodule_laws
from full_scan import full_scan_semimodule, full_scan_semiring


def test_builders_validate(semirings):
    for name, s in all_semiring_fixtures().items():
        report = validate_semiring(s)
        assert report.ok, f"{name}: {report}"
        assert not oracle_semiring_laws(s), name


def test_fixture_modules_validate(modules):
    for name, m in modules.items():
        report = validate_semimodule(m)
        assert report.ok, f"{name}: {report}"
        assert not oracle_semimodule_laws(m), name


def test_boolean_tables():
    b = make_boolean()
    assert b.add == ((0, 1), (1, 1))
    assert b.mul == ((0, 0), (0, 1))


def test_patched_boolean_is_z2():
    # flipping add(1,1) to 0 turns OR into XOR: the result is the field Z2,
    # which is a valid semiring, so validation must accept it
    patched = mutated_semiring(make_boolean(), "add", 1, 1, 0)
    assert validate_semiring(patched).ok
    assert patched.add == make_zmod(2).add and patched.mul == make_zmod(2).mul


def test_patched_boolean_fails_with_witness():
    bad = mutated_semiring(make_boolean(), "add", 0, 1, 0)
    report = validate_semiring(bad)
    assert not report.ok
    laws = {v.law for v in report.violations}
    assert any("neutral" in law or "commutative" in law for law in laws)
    assert all(v.witness for v in report.violations)


def test_validator_agrees_with_oracle_on_mutants():
    """Every single-cell mutation is judged identically by the validator and
    the independent quantifier scan."""
    for s in (make_boolean(), make_zmod(2), make_saturating_naturals(2)):
        for table in ("add", "mul"):
            for i in range(s.size):
                for j in range(s.size):
                    for v in range(s.size):
                        if getattr(s, table)[i][j] == v:
                            continue
                        bad = mutated_semiring(s, table, i, j, v)
                        assert validate_semiring(bad).ok == (not oracle_semiring_laws(bad))


@pytest.mark.parametrize("name", list(builtin_semirings()))
def test_semiring_reports_match_full_scan_on_mutants(name):
    """Every single-cell mutant of a builtin's add and mul tables gets the
    report of the full scan, string for string: checking laws on generators
    of S misses no violation and names the same witness."""
    s = builtin_semirings()[name]
    for table in ("add", "mul"):
        for i, row in enumerate(getattr(s, table)):
            for j, x in enumerate(row):
                for v in range(s.size):
                    if v != x:
                        bad = mutated_semiring(s, table, i, j, v)
                        assert str(validate_semiring(bad)) == str(full_scan_semiring(bad))


@pytest.mark.parametrize("name", list(builtin_semirings()))
def test_module_reports_match_full_scan_on_mutants(name):
    """Every single-cell mutant of the add and action tables of each module of
    size <= 3 over a builtin gets the report of the full scan."""
    mutants = 0
    for m in enumerate_semimodules(UniverseSpec(builtin_semirings()[name], 3)).modules:
        assert str(validate_semimodule(m)) == str(full_scan_semimodule(m)) \
            == f"module {m.name}: ok"
        for table in ("add", "action"):
            for i, row in enumerate(getattr(m, table)):
                for j, x in enumerate(row):
                    for v in range(m.size):
                        if v != x:
                            bad = mutated_module(m, table, i, j, v)
                            assert str(validate_semimodule(bad)) == str(full_scan_semimodule(bad))
                            mutants += 1
    assert mutants > 0


def _mutants(x, tables):
    """Every single-cell mutant of the named tables of a semiring or module."""
    mutated = mutated_semiring if isinstance(x, Semiring) else mutated_module
    for table in tables:
        for i, row in enumerate(getattr(x, table)):
            for j, old in enumerate(row):
                for v in range(x.size):
                    if v != old:
                        yield mutated(x, table, i, j, v)


def test_module_reports_match_full_scan_on_size4_mutants():
    """Every single-cell mutant of each size-4 module over the builtins whose
    G is not empty gets the report of the full scan: (m+m')s = ms + m's is
    checked at s in G only, so a wrong reduction of it would show here."""
    mutants = 0
    for name in ("minplus1", "minplus2", "minplus3", "BxZ2", "T2xB"):
        s = builtin_semirings()[name]
        assert generators(s)[1], name
        for m in enumerate_semimodules(UniverseSpec(s, 4)).modules:
            if m.size == 4:
                assert validate_semimodule(m).ok, m.name
                for bad in _mutants(m, ("add", "action")):
                    assert str(validate_semimodule(bad)) == str(full_scan_semimodule(bad))
                    mutants += 1
    assert mutants == 5760


def test_laws_at_generators_are_checked_at_each_generator():
    """Tables that meet every law but one, and break it only at a later
    element of G: the report names that law as the full scan does."""
    t2xb, ut2b = builtin_semirings()["T2xB"], make_upper_triangular_boolean()
    cases = [  # (m+m')s breaks at s = 2 over T2xB and at s = 5 over UT2B
        (t2xb, ((0, 1, 2), (1, 1, 1), (2, 1, 2)),
         ((0, 0, 0, 0, 0, 0), (0, 1, 0, 1, 0, 1), (0, 0, 2, 2, 2, 2)), "(m+m')s != ms+m's"),
        (ut2b, ((0, 1, 2), (1, 1, 2), (2, 2, 2)),
         ((0, 0, 0, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 1, 1, 1), (0, 2, 2, 0, 2, 0, 0, 2)),
         "(m+m')s != ms+m's"),
        # (ms)t breaks at t = 2 over T2xB and at t = 3 over UT2B
        (t2xb, ((0, 1, 2), (1, 1, 1), (2, 1, 2)),
         ((0, 0, 0, 0, 0, 0), (0, 1, 2, 1, 2, 1), (0, 0, 2, 2, 2, 2)), "(ms)s' != m(ss')"),
        (ut2b, ((0, 1), (1, 1)), ((0, 0, 0, 0, 0, 0, 0, 0), (0, 1, 1, 1, 1, 0, 1, 1)),
         "(ms)s' != m(ss')")]
    for s, add, action, law in cases:
        bad = Semimodule("bad", s, len(add), add, action)
        report = validate_semimodule(bad)
        assert [v.law for v in report.violations] == [law], s.name
        assert str(report) == str(full_scan_semimodule(bad))


def test_upper_triangular_boolean_validates():
    """UT2B's multiplication is not commutative, and G has three elements."""
    s = make_upper_triangular_boolean()
    assert validate_semiring(s).ok and not oracle_semiring_laws(s)
    assert s.mul != tuple(zip(*s.mul))
    assert generators(s) == ((1, 2, 3, 5), (2, 3, 5))
    assert validate_semimodule(self_module(s)).ok


def test_upper_triangular_boolean_reports_match_full_scan_on_mutants():
    """Every single-cell mutant of UT2B's add and mul tables, and of the add
    and action tables of its modules of size <= 3, gets the full scan's
    report; its size <= 3 universe is the 5 modules the recount finds."""
    s = make_upper_triangular_boolean()
    for bad in _mutants(s, ("add", "mul")):
        assert str(validate_semiring(bad)) == str(full_scan_semiring(bad))
    modules = enumerate_semimodules(UniverseSpec(s, 3)).modules
    assert len(modules) == 5 == len(enumerate_semimodules_naive(s, 3))
    for m in modules:
        assert str(validate_semimodule(m)) == str(full_scan_semimodule(m)) \
            == f"module {m.name}: ok"
        for bad in _mutants(m, ("add", "action")):
            assert str(validate_semimodule(bad)) == str(full_scan_semimodule(bad))


def test_trusted_modules_equal_checked_ones():
    """Enumerated modules and their name-free twins skip only the freezing and
    range checks: each equals, and hashes as, the module the public
    constructor builds from its fields."""
    for m in enumerate_semimodules(UniverseSpec(builtin_semirings()["T2xB"], 3)).modules:
        for x in (m, m.unnamed):
            checked = Semimodule(x.name, x.semiring, x.size, x.add, x.action, zero=x.zero)
            assert x == checked and hash(x) == hash(checked), x.name


def test_generators_of_builtins():
    gens = {name: generators(s) for name, s in builtin_semirings().items()}
    for name in ("B", "Z2", "Z3", "Z4", "T1", "T2", "T3", "nat3", "nat4"):
        assert gens[name] == ((1,), ()), name
    for k in (1, 2, 3):
        assert gens[f"minplus{k}"] == (tuple(range(1, k + 2)), (2,))
    assert gens["BxZ2"] == ((1, 2), (1,)) and gens["T2xB"] == ((1, 2), (1, 2))
    assert generators(mutated_semiring(make_boolean(), "add", 0, 1, 0)) is None


def test_module_mutants_fail(sat3, max3):
    bad = mutated_module(max3, "action", 1, max3.semiring.zero, 1)
    report = validate_semimodule(bad)
    assert not report.ok
    assert any("m.0_S != 0_M" == v.law for v in report.violations)
    for m in (sat3, max3):
        for i in range(1, m.size):
            for v in range(m.size):
                if m.add[i][i] == v:
                    continue
                bad = mutated_module(m, "add", i, i, v)
                assert validate_semimodule(bad).ok == (not oracle_semimodule_laws(bad))


def test_zero_must_differ_from_one():
    trivial = Semiring("triv", 1, ((0,),), ((0,),), zero=0, one=0)
    report = validate_semiring(trivial)
    assert any(v.law == "zero equals one" for v in report.violations)


def test_malformed_tables_are_structural_errors():
    with pytest.raises(StructureError):
        Semiring("bad", 2, ((0, 1),), ((0, 0), (0, 1)))
    with pytest.raises(StructureError):
        Semiring("bad", 2, ((0, 1), (1, 5)), ((0, 0), (0, 1)))
    with pytest.raises(StructureError):
        Semimodule("bad", make_boolean(), 2, ((0, 1), (1, 1)), ((0,), (0,)))


def test_builder_parameter_errors():
    with pytest.raises(ParameterError):
        make_zmod(1)
    with pytest.raises(ParameterError):
        make_saturating_naturals(0)
    with pytest.raises(ParameterError):
        make_truncated_minplus(0)
    with pytest.raises(ParameterError):
        make_natural_quotient(0, 1)


def test_natural_quotient_specializes():
    assert make_natural_quotient(0, 4).add == make_zmod(4).add
    assert make_natural_quotient(0, 4).mul == make_zmod(4).mul
    assert make_natural_quotient(3, 1).add == make_saturating_naturals(3).add
    assert make_natural_quotient(3, 1).mul == make_saturating_naturals(3).mul


def test_minplus_shape():
    mp = make_truncated_minplus(1)
    assert mp.size == 3
    # addition is idempotent (it is min)
    assert all(mp.add[a][a] == a for a in range(mp.size))
    assert validate_semiring(mp).ok


def test_cancellable_examples(sat3):
    z2 = self_module(make_zmod(2))
    assert all(is_cancellable(Element(z2, m)) for m in z2.elements())
    assert not is_cancellable(Element(sat3, 2))  # 2+1 = 2+2 = 2
    assert is_cancellable(Element(sat3, 0))


def test_cancellative_module_matches_elementwise(nat3_universe):
    for m in nat3_universe:
        assert is_cancellative_module(m) == all(
            is_cancellable(Element(m, x)) for x in m.elements())


def _cancellable_by_scan(M, m):
    """The scan is_cancellable made before it read add rows: m + x for each
    x, stopping at the first value seen before."""
    seen = {}
    for x in M.elements():
        v = M.add[m][x]
        if v in seen:
            return False
        seen[v] = x
    return True


def test_cancellable_rows_match_the_scan(nat4_universe):
    """_cancellable (an add row repeats no value) is the scan's verdict on every
    element of every module of nat4@4 and of each builtin universe at size 3,
    and so are is_cancellable and is_cancellative_module."""
    universes = [nat4_universe] + [enumerate_semimodules(UniverseSpec(s, 3)).modules
                                   for s in builtin_semirings().values()]
    count = 0
    for M in (M for universe in universes for M in universe):
        verdicts = [_cancellable_by_scan(M, m) for m in M.elements()]
        assert [_cancellable(M, m) for m in M.elements()] == verdicts
        assert [is_cancellable(Element(M, m)) for m in M.elements()] == verdicts
        assert is_cancellative_module(M) == all(verdicts)
        count += verdicts.count(False)
    assert count > 100  # both verdicts occur


def test_closure_examples(sat3):
    assert sorted(subtractive_closure_set(sat3, (0, 2))) == [0, 1, 2]
    z2 = self_module(make_zmod(2))
    assert sorted(subtractive_closure_set(z2, (0,))) == [0]
    assert sorted(subtractive_closure_set(sat3, range(3))) == [0, 1, 2]


def test_closure_matches_oracle(nat3_universe):
    for m in nat3_universe:
        for sub in all_subsemimodules(m):
            assert set(subtractive_closure_set(m, sub.members)) == \
                oracle_closure(m, sub.members)


def test_closure_is_closure_operator(nat3_universe):
    for m in nat3_universe:
        subs = all_subsemimodules(m)
        for x in subs:
            cx = subtractive_closure(x)
            assert set(x.members) <= set(cx.members)  # extensive
            ccx = subtractive_closure(cx)
            assert cx.members == ccx.members  # idempotent
            for y in subs:
                if set(x.members) <= set(y.members):  # monotone
                    assert set(cx.members) <= set(subtractive_closure(y).members)


def test_closure_yields_valid_subsemimodule(nat4_universe):
    for m in nat4_universe:
        for sub in all_subsemimodules(m):
            Subsemimodule(m, tuple(sorted(subtractive_closure_set(m, sub.members))))


def test_group_subsemimodules_are_subtractive(modules):
    for name in ("z2", "z3", "z4"):
        m = modules[name]
        for sub in all_subsemimodules(m):
            assert is_subtractive(sub), (name, sub.members)


def test_non_subtractive_example(sat3):
    assert not is_subtractive(Subsemimodule(sat3, (0, 2)))
    assert is_subtractive(Subsemimodule(sat3, tuple(range(3))))


def test_subsemimodule_validation(max3):
    with pytest.raises(StructureError):
        Subsemimodule(max3, (1, 2))  # missing zero
    with pytest.raises(StructureError):
        Subsemimodule(max3, (0, 5))
    with pytest.raises(StructureError):
        # {0,1} is not add-closed in the saturating monoid (1+1 = 2)
        Subsemimodule(module_from_monoid(((0, 1, 2), (1, 2, 2), (2, 2, 2)), "w"), (0, 1))


def test_members_elements_and_bounds_are_refused(max3):
    """An empty member list; members closed under + but not under the action
    ({0, 1} in minplus1 over itself); an element index past the carrier; and
    monoid_semiring(0): each refused with its own message."""
    with pytest.raises(StructureError, match=r"^subsemimodule of max3: empty member list$"):
        Subsemimodule(max3, ())
    with pytest.raises(StructureError, match=r"^subsemimodule of minplus1: not closed under "
                                             r"action \(1\.2=2\)$"):
        Subsemimodule(self_module(make_truncated_minplus(1)), (0, 1))
    with pytest.raises(StructureError, match=r"^element 3 out of range in max3$"):
        Element(max3, 3)
    with pytest.raises(ParameterError, match=r"^monoid_semiring: max_size must be >= 1$"):
        monoid_semiring(0)


def test_natural_action_refuses_non_generated():
    mp = make_truncated_minplus(2)
    assert natural_action(mp, ((0, 1), (1, 1))) is None
    with pytest.raises(StructureError):
        module_from_monoid(((0, 1), (1, 1)), "x", mp)


def test_monoid_semiring_acts_on_all_small_monoids(nat4_universe):
    s = monoid_semiring(4)
    for m in nat4_universe:
        assert m.semiring == s
        assert validate_semimodule(m).ok


def test_zero_module_cached():
    b = make_boolean()
    assert zero_module(b) is zero_module(b)
    assert zero_module(b).size == 1


@given(st.data())
def test_closure_extensive_and_monotone_random(data):
    m = module_from_monoid(((0, 1, 2), (1, 2, 2), (2, 2, 2)), "sat3h")
    subs = all_subsemimodules(m)
    x = data.draw(st.sampled_from(subs))
    y = data.draw(st.sampled_from(subs))
    cx, cy = subtractive_closure(x), subtractive_closure(y)
    assert set(x.members) <= set(cx.members)
    if set(x.members) <= set(y.members):
        assert set(cx.members) <= set(cy.members)


# ---------------------------------------------------------- search engine

def _toy_laws(seen):
    """Laws on five cells c0..c4: c3 = c0 + c1 mod 3, which forces c3 once c0
    and c1 are known, and c2 != c0 and c4 != c1, which reject a partial
    table; each run appends (cell, table) to seen."""
    def laws(t, k, put):
        seen.append((k, tuple(t)))
        if k in (0, 1, 3) and None not in (t[0], t[1]):
            f = (t[0] + t[1]) % 3
            if t[3] is None:
                put(3, f)
            elif t[3] != f:
                return False
        if k in (0, 2) and t[0] is not None and t[0] == t[2]:
            return False
        return not (k in (1, 4) and t[1] is not None and t[1] == t[4])
    return laws


def _brute_completions(table, order):
    """Every filling of the unknown cells with 0..2 that the toy laws accept
    as whole tables, in lexicographic order of the cells in order."""
    cells = [c for c, v in enumerate(table) if v is None]
    out = []
    for values in product(range(3), repeat=len(cells)):
        t = list(table)
        for c, v in zip(cells, values):
            t[c] = v
        if t[3] == (t[0] + t[1]) % 3 and t[2] != t[0] and t[4] != t[1]:
            out.append(tuple(t))
    return sorted(out, key=lambda t: [t[c] for c in order])


@pytest.mark.parametrize("table, start, order", [
    ([None] * 5, (), [0, 1, 3, 2, 4]),
    ([None] * 5, (), [4, 2, 1, 0, 3]),
    ([None, None, None, None, 2], (4,), [0, 1, 3, 2]),
    ([None, 1, None, None, 2], (1, 4), [2, 3, 0]),
    ([0, None, 0, None, None], (0, 2), [1, 3, 4]),
])
def test_completions_match_brute_force(table, start, order):
    """The engine returns the fillings a sweep of every assignment accepts, in
    lexicographic order of `order`. Once c0 and c1 are known, c3 only ever
    holds the value they force: a forced cell is never branched on."""
    seen = []
    got = list(_completions(list(table), order, range(3), _toy_laws(seen), start))
    assert got == _brute_completions(table, order)
    assert all(t[3] == (t[0] + t[1]) % 3 for k, t in seen
               if k == 3 and None not in (t[0], t[1]))


@pytest.mark.parametrize("order", [[0, 1, 3, 2, 4], [4, 2, 1, 0, 3]])
def test_completions_prune_drops_partial_tables(order):
    """A prune hook runs once the laws have run (c3 is forced wherever c0 and
    c1 are known), before each branch and never on a complete table; True
    drops the partial table with all its completions, here each table whose
    first cell in the order holds 1."""
    calls = []

    def prune(t):
        calls.append(tuple(t))
        return t[order[0]] == 1

    got = list(_completions([None] * 5, order, range(3), _toy_laws([]), (), prune))
    assert got == [t for t in _brute_completions([None] * 5, order) if t[order[0]] != 1]
    assert any(t[order[0]] == 1 for t in calls)
    assert all(None in t for t in calls)
    assert all(t[3] == (t[0] + t[1]) % 3 for t in calls if None not in (t[0], t[1]))
