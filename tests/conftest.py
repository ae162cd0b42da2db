"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately re-derive everything from raw tables with
their own loops (no calls into the code paths they check).
"""

import os
from itertools import product
from pathlib import Path

import pytest

from semiexact.core import (Semimodule, make_product, make_truncated_minplus, make_zmod,
                            monoid_semiring)
from semiexact.enumeration import UniverseSpec, enumerate_semimodules
from semiexact.fixtures import builtin_modules, builtin_semirings, monoid_fixture
from semiexact.morphisms import _linearity_problem
from semiexact.quotients import Congruence


@pytest.fixture(scope="session")
def src_env():
    """The environment with this checkout's src/ first on PYTHONPATH, for
    tests that start a fresh interpreter."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


@pytest.fixture(scope="session")
def semirings():
    return builtin_semirings()


@pytest.fixture(scope="session")
def modules():
    return builtin_modules()


@pytest.fixture(scope="session")
def nat3_universe():
    return enumerate_semimodules(UniverseSpec(monoid_semiring(3), 3)).modules


@pytest.fixture(scope="session")
def nat4_universe():
    return enumerate_semimodules(UniverseSpec(monoid_semiring(4), 4)).modules


@pytest.fixture(scope="session")
def sat3():
    return monoid_fixture("sat3")


@pytest.fixture(scope="session")
def max3():
    return monoid_fixture("max3")


@pytest.fixture(scope="session")
def chain2():
    return monoid_fixture("chain2")


# ------------------------------------------------------ builders for tests

def mutated_semiring(s, table, i, j, value):
    """Copy of s with one table cell edited; table is 'add' or 'mul'."""
    rows = [list(r) for r in getattr(s, table)]
    rows[i][j] = value
    kw = {"add": s.add, "mul": s.mul}
    kw[table] = tuple(tuple(r) for r in rows)
    return type(s)(f"{s.name}!{table}[{i}][{j}]={value}", s.size, kw["add"], kw["mul"],
                   zero=s.zero, one=s.one)


def mutated_module(m, table, i, j, value):
    rows = [list(r) for r in getattr(m, table)]
    rows[i][j] = value
    kw = {"add": m.add, "action": m.action}
    kw[table] = tuple(tuple(r) for r in rows)
    return Semimodule(f"{m.name}!{table}[{i}][{j}]={value}", m.semiring, m.size,
                      kw["add"], kw["action"], zero=m.zero)


def is_linear_table(dom, cod, f):
    """Linearity predicate on a raw table over all of S, without exceptions."""
    return _linearity_problem(dom, cod, f) is None


def identity_congruence(M):
    return Congruence(M, tuple(range(M.size)))


# ------------------------------------------------------ independent oracles

def oracle_semiring_laws(s):
    """Quantifier-style axiom scan, independent of validate_semiring."""
    rng = range(s.size)
    broken = set()
    for a, b, c in product(rng, repeat=3):
        if s.add[s.add[a][b]][c] != s.add[a][s.add[b][c]]:
            broken.add("add-assoc")
        if s.mul[s.mul[a][b]][c] != s.mul[a][s.mul[b][c]]:
            broken.add("mul-assoc")
        if s.mul[a][s.add[b][c]] != s.add[s.mul[a][b]][s.mul[a][c]]:
            broken.add("ldist")
        if s.mul[s.add[b][c]][a] != s.add[s.mul[b][a]][s.mul[c][a]]:
            broken.add("rdist")
    for a, b in product(rng, repeat=2):
        if s.add[a][b] != s.add[b][a]:
            broken.add("add-comm")
    for a in rng:
        if s.add[a][s.zero] != a:
            broken.add("zero-neutral")
        if s.mul[a][s.one] != a or s.mul[s.one][a] != a:
            broken.add("one-neutral")
        if s.mul[a][s.zero] != s.zero or s.mul[s.zero][a] != s.zero:
            broken.add("zero-absorbing")
    if s.zero == s.one:
        broken.add("zero-is-one")
    return broken


def oracle_semimodule_laws(m):
    s = m.semiring
    broken = set()
    mr, sr = range(m.size), range(s.size)
    for a, b, c in product(mr, repeat=3):
        if m.add[m.add[a][b]][c] != m.add[a][m.add[b][c]]:
            broken.add("add-assoc")
    for a, b in product(mr, repeat=2):
        if m.add[a][b] != m.add[b][a]:
            broken.add("add-comm")
    for a in mr:
        if m.add[a][m.zero] != a:
            broken.add("zero-neutral")
        if m.action[a][s.one] != a:
            broken.add("one-acts-trivially")
        if m.action[a][s.zero] != m.zero:
            broken.add("zero-scalar")
    for x in sr:
        if m.action[m.zero][x] != m.zero:
            broken.add("zero-element")
    for a in mr:
        for x, y in product(sr, repeat=2):
            if m.action[m.action[a][x]][y] != m.action[a][s.mul[x][y]]:
                broken.add("action-assoc")
            if m.action[a][s.add[x][y]] != m.add[m.action[a][x]][m.action[a][y]]:
                broken.add("action-left-dist")
    for a, b in product(mr, repeat=2):
        for x in sr:
            if m.action[m.add[a][b]][x] != m.add[m.action[a][x]][m.action[b][x]]:
                broken.add("action-right-dist")
    return broken


def oracle_closure(module, members):
    """Subtractive closure straight from the defining condition."""
    members = set(members)
    return {m for m in range(module.size)
            if any(module.add[m][x1] in members for x1 in members)}


def oracle_bourne_related(module, members, m1, m2):
    return any(module.add[m1][l1] == module.add[m2][l2]
               for l1 in members for l2 in members)


def all_semiring_fixtures():
    out = dict(builtin_semirings())
    out["minplus2xZ2"] = make_product(make_truncated_minplus(2), make_zmod(2))
    return out
