"""The benchmark's three workloads: set-up, tasks, and known-answer checks.

A workload function `(seed, tiny, workdir)` builds its specs and semirings
and returns an iterable of `Task`s with a list of notes for the report.
`Task.run` is the timed call into semiexact; `Task.check` runs untimed
afterwards and returns `(failures, digest_text)`: every failed known-answer
check, and a canonical text of the output that feeds the run's digest. `Task.kind` groups tasks for reporting; tasks of the
workload's `PRIMARY` kind feed the per-task percentiles, and carry a
`corrupt` function that the self-test uses to damage one output on purpose.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Task:
    id: str
    kind: str
    run: Callable[[], object]
    check: Callable[[object], tuple] = field(repr=False)
    corrupt: Optional[Callable[[object], object]] = field(default=None, repr=False)


def _names(values):
    return ",".join(str(v) for v in values)


# ------------------------------------------------------------- lemma-corpus

# Quotas of acceptance criteria 6 (110 on the ring pools, 60 on T2 and B)
# and 7 (130 per snake pool), all scaled by one factor so that one pass
# fits several times into a run; the factor is printed with every run.
QUOTA_FACTOR = 0.05
TINY_QUOTA_FACTOR = 0.01


def _scaled(quota, factor):
    return math.ceil(quota * factor)


def lemma_corpus(seed, tiny, workdir):
    from semiexact.core import make_boolean, make_saturating_naturals, make_zmod
    from semiexact import diagrams as dg
    from semiexact import harness as hs
    from semiexact.enumeration import abelian_snake_delta

    factor = TINY_QUOTA_FACTOR if tiny else QUOTA_FACTOR
    ring_q, small_q, snake_q = (_scaled(q, factor) for q in (110, 60, 130))
    z2, z4 = make_zmod(2), make_zmod(4)
    t2, b = make_saturating_naturals(2), make_boolean()
    pools = {"Z2": hs.HarnessSpec(z2, 4, seed=seed, quota=ring_q),
             "Z4": hs.HarnessSpec(z4, 4, seed=seed, quota=ring_q),
             "T2": hs.HarnessSpec(t2, 3, seed=seed, quota=small_q),
             "B": hs.HarnessSpec(b, 4, seed=seed, quota=small_q)}
    snake_pools = {name: hs.HarnessSpec(s, 3 if name == "T2" else 4, seed=seed,
                                        quota=snake_q)
                   for name, s in (("B", b), ("Z2", z2), ("Z4", z4), ("T2", t2))}

    # (clause id, generator, verifier, pools): the clauses and pools of criterion 6
    clauses = []
    for k in (1, 2, 3):
        clauses.append((f"short.{k}", lambda s, k=k: hs.gen_lemma_short(s, k),
                        lambda d, k=k: dg.verify_lemma_short(d, k), ("Z2", "T2")))
    for k in ("1a", "1b", "2a", "2b", "3"):
        # clause 2b draws its second pool from Z4, as criterion 6 does
        clauses.append((f"diagram.{k}", lambda s, k=k: hs.gen_lemma_diagram(s, k),
                        lambda d, k=k: dg.verify_lemma_diagram(d, k),
                        ("Z2", "Z4" if k == "2b" else "B")))
    clauses.append(("short-five", hs.gen_short_five, dg.verify_short_five, ("Z2", "Z4")))
    for k in (1, 2):
        clauses.append((f"short-five-half.{k}", lambda s, k=k: hs.gen_short_five_half(s, k),
                        lambda d, k=k: dg.verify_short_five_half(d, k), ("Z2", "Z4")))
    for k in ("1a", "1b", "2", "3"):
        clauses.append((f"five-parts.{k}", lambda s, k=k: hs.gen_five_parts(s, k),
                        lambda d, k=k: dg.verify_five_parts(d, k), ("Z2",)))
    for k in (1, 2, 3):
        clauses.append((f"five.{k}", lambda s, k=k: hs.gen_five(s, k),
                        lambda d, k=k: dg.verify_five(d, k), ("Z2",)))
    for k in (1, 2):
        clauses.append((f"nine-first.{k}", lambda s, k=k: hs.gen_nine_first(s, k),
                        lambda d, k=k: dg.verify_nine_first(d, k), ("Z2", "T2")))
        clauses.append((f"nine-third.{k}", lambda s, k=k: hs.gen_nine_third(s, k),
                        lambda d, k=k: dg.verify_nine_third(d, k), ("Z2", "T2")))
    for k in ("first-from-third", "third-from-first", "iff"):
        clauses.append((f"nine.{k}", lambda s, k=k: hs.gen_nine(s, k),
                        lambda d, k=k: dg.verify_nine(d, k), ("Z2", "Z4")))

    def clause_task(cid, gen, verifier, pool):
        spec = pools[pool]

        def run():
            diagrams = gen(spec)
            return diagrams, [verifier(d) for d in diagrams]

        def check(out):
            diagrams, certs = out
            failures = []
            if len(diagrams) != spec.quota:
                failures.append(f"{len(diagrams)} diagrams, quota {spec.quota}")
            lines = []
            for d, cert in zip(diagrams, certs):
                if not cert.ok:
                    failures.append(f"{d.name}: {cert.failures()}")
                lines.append(_diagram_text(d) + " " + _cert_text(cert))
            return failures, "\n".join(lines)

        return Task(f"{cid}@{pool}", "corpus", run, check, _drop_last)

    def snake_task(pool):
        spec = snake_pools[pool]

        def run():
            diagrams = hs.gen_snake(spec)
            return diagrams, [dg.snake(d) for d in diagrams]

        def check(out):
            diagrams, results = out
            failures = []
            if len(diagrams) != spec.quota:
                failures.append(f"{len(diagrams)} diagrams, quota {spec.quota}")
            lines = []
            for d, r in zip(diagrams, results):
                if not r.ok:
                    failures.append(f"{d.name}: snake certificate failed")
                if pool in ("Z2", "Z4"):
                    failures.extend(_abelian_mismatch(d, r, abelian_snake_delta))
                lines.append(_diagram_text(d) + f" delta={_names(r.delta.map)} "
                             + " ".join(_cert_text(c) for c in r.certificates))
            return failures, "\n".join(lines)

        return Task(f"snake@{pool}", "corpus", run, check, _drop_last)

    tasks = [clause_task(cid, gen, verifier, pool)
             for cid, gen, verifier, names in clauses for pool in names]
    tasks += [snake_task(pool) for pool in snake_pools]
    notes = [f"quota factor {factor}: spec quotas {ring_q} (Z2, Z4), {small_q} (T2, B), "
             f"{snake_q} per snake pool; the seed feeds every HarnessSpec"]
    return tasks, notes


def _drop_last(out):
    diagrams, results = out
    return diagrams[:-1], results[:-1]


def _diagram_text(d):
    arrows = sorted(d.horizontals.items()) + sorted(d.verticals.items())
    return f"{d.name}:" + ";".join(_names(a.map) for _, a in arrows)


def _cert_text(cert):
    return f"{cert.lemma}[" + ",".join(
        f"{a.id}={'ok' if a.ok else 'FAIL:' + a.witness}"
        for a in cert.hypotheses + cert.conclusions) + "]"


def _abelian_mismatch(d, r, oracle):
    f1, g1 = d.horizontal(0, 0), d.horizontal(0, 1)
    f2, g2 = d.horizontal(1, 0), d.horizontal(1, 1)
    a1, a2, a3 = (d.vertical(0, c) for c in range(3))
    cosets, delta_ids, ker_elems = oracle(f1, g1, f2, g2, a1, a2, a3)
    out = []
    if tuple(ker_elems) != r.kernel_inclusions[2].map:
        out.append(f"{d.name}: kernel of alpha3 differs from the abelian oracle")
    if tuple(r.cokernels[0].congruence.class_members()) != cosets:
        out.append(f"{d.name}: cokernel classes differ from the abelian oracle")
    if r.delta.map != delta_ids:
        out.append(f"{d.name}: delta differs from the abelian oracle")
    return out


# ---------------------------------------------------------- universe-export

# len(enumerate_semimodules_naive(S, n)) for n = 4 and 3, per builtin
# semiring; `run.py --self-test` recomputes every entry.
MODULE_COUNTS = {
    "B": (5, 3), "Z2": (3, 2), "Z3": (2, 2), "Z4": (4, 2), "T1": (5, 3),
    "T2": (10, 4), "T3": (11, 4), "minplus1": (18, 7), "minplus2": (24, 8),
    "minplus3": (25, 8), "BxZ2": (8, 4), "T2xB": (15, 6), "nat3": (26, 8),
    "nat4": (27, 8),
}
# commutative monoids of order 1..4 up to isomorphism (OEIS A058131)
NAT4_MODULES = 1 + 2 + 5 + 19
# Exported at max size 3, not 4. At size 4 their exports take 4.5 s (T2xB,
# 64,376 validate_semimodule calls) and 2.4 s (minplus3, 38,868): a run has
# room for only four samples of each, too few for the fastest to miss the
# slow stretches of a shared host, and two sets of ten runs then spread past
# the 0.25 bound. The size-4 action search and validation still run on
# minplus1, BxZ2 and minplus2 (19,968 validate_semimodule calls per pass).
SIZE_3_ONLY = ("T2xB", "minplus3")


def universe_export(seed, tiny, workdir):
    from semiexact.cli import main
    from semiexact.fixtures import builtin_semirings
    from semiexact.workspace import parse, parse_files, serialize

    names = list(builtin_semirings())

    def export_task(name):
        path = os.path.join(workdir, f"corpus-{name}.sx")
        bound = 3 if tiny or name in SIZE_3_ONLY else 4

        def run():
            code = main(["corpus", name, "--max-size", str(bound),
                         "--corpus", path, "--quiet"])
            ws = parse_files([path])
            return code, ws, serialize(ws)

        def check(out):
            code, ws, text = out
            failures = []
            if code != 0:
                failures.append(f"exit code {code}")
            expected = MODULE_COUNTS[name][0 if bound == 4 else 1]
            if len(ws.modules) != expected:
                failures.append(f"{len(ws.modules)} modules, expected {expected}")
            if name == "nat4" and bound == 4 and len(ws.modules) != NAT4_MODULES:
                failures.append(f"nat4: {len(ws.modules)} modules, expected {NAT4_MODULES}")
            with open(path, encoding="utf-8") as fh:
                written = fh.read()
            if text != written or parse(text) != ws:
                failures.append("parse and serialize do not round-trip")
            return failures, text

        def corrupt(out):
            code, ws, text = out
            return code, ws, text.replace("end\n", "end\n\n", 1)

        return Task(f"corpus@{name}", "export", run, check, corrupt)

    notes = ["exhaustive export at max size " + ("3" if tiny else
             f"4 ({' and '.join(SIZE_3_ONLY)} at 3)") + "; the seed is not used"]
    return [export_task(n) for n in names], notes


# ----------------------------------------------------------- morphism-sweep

# exit code of `semiexact search <property> nat4 --max-size n`, and the
# instance count reported when the search exhausts, for n = 3 and 4
SEARCH_ANSWERS = {
    "non-subtractive-subsemimodule": {3: (1, None), 4: (1, None)},
    "semi-mono-not-mono": {3: (1, None), 4: (1, None)},
    "proper-exact-not-exact": {3: (1, None), 4: (1, None)},
    "semi-exact-not-proper-exact": {3: (1, None), 4: (1, None)},
    "mono-not-injective": {3: (0, 110), 4: (0, 2280)},
    "cancellative-epi-not-surjective": {3: (0, 12), 4: (0, 60)},
    "non-i-uniform-bimorphism-cs": {3: (0, 12), 4: (0, 60)},
    "bimorphism-not-iso": {3: (0, 110), 4: (0, 2280)},
    "short-five-needs-i-uniform": {3: (0, 76), 4: (0, 3644)},
}
NAT4_MAPS = 2280


def morphism_sweep(seed, tiny, workdir):
    from semiexact.cli import main
    from semiexact.core import all_subsemimodules, monoid_semiring
    from semiexact.enumeration import (Counterexample, UniverseSpec,
                                       enumerate_semimodules, is_epimorphism,
                                       is_monomorphism, replay_counterexample,
                                       search_counterexample, universe_with_free_module)
    from semiexact.exactness import ker_coker_sequence, subobject_character
    from semiexact.morphisms import canonical_iso, classify, cokernel, enumerate_hom

    nat4 = monoid_semiring(4)
    bound = 3 if tiny else 4
    spec = UniverseSpec(nat4, bound, seed=seed)
    search_sizes = (3,) if tiny else (3, 4)
    state = {}

    def universe_run():
        mods = enumerate_semimodules(spec).modules
        maps = [f for M in mods for N in mods for f in enumerate_hom(M, N)]
        state["mods"], state["maps"] = mods, maps
        state["pool"] = universe_with_free_module(spec)
        return mods, maps, state["pool"]

    def universe_check(out):
        mods, maps, pool = out
        failures = []
        if not tiny and (len(mods), len(maps)) != (MODULE_COUNTS["nat4"][0], NAT4_MAPS):
            failures.append(f"{len(mods)} modules and {len(maps)} maps, "
                            f"expected {MODULE_COUNTS['nat4'][0]} and {NAT4_MAPS}")
        return failures, f"{len(mods)} modules {len(maps)} maps {len(pool)} test modules"

    def map_task(i, f):
        def run():
            pool = state["pool"]
            return (classify(f), cokernel(f), canonical_iso(f), ker_coker_sequence(f),
                    is_monomorphism(f, pool), is_epimorphism(f, pool))

        def check(out):
            c, coker, iso, kc, mono, epi = out
            failures = [f"{f.name}: {m}" for m in _classification_mismatch(f, c)]
            if mono != c.injective:
                failures.append(f"{f.name}: monomorphism test {mono}, injective {c.injective}")
            if not kc.verdict.semi_exact or kc.verdict.exact != c.uniform:
                failures.append(f"{f.name}: kernel-cokernel sequence verdict is wrong")
            flags = "".join("1" if v else "0" if v is not None else "-"
                            for v in c.flags().values())
            return failures, (f"{i} {f.name} {flags} coker={_names(coker.projection.map)} "
                              f"iso={_names(iso.map)} mono={mono} epi={epi}")

        def corrupt(out):
            return out[:4] + (not out[4],) + out[5:]

        return Task(f"map{i}", "map", run, check, corrupt)

    def subobject_task(M):
        def run():
            return [(X, subobject_character(X)) for X in all_subsemimodules(M)]

        def check(out):
            failures = [f"{M.name} {_names(X.members)}: characterizations disagree"
                        for X, ch in out if not ch.equivalent]
            return failures, " ".join(f"{_names(X.members)}:{int(ch.normal)}{int(ch.uniform)}"
                                      for X, ch in out)

        return Task(f"subobjects@{M.name}", "subobjects", run, check)

    def search_task(prop, n):
        report = os.path.join(workdir, f"search-{prop}-{n}.txt")

        def run():
            return main(["search", prop, "nat4", "--max-size", str(n), "--seed", str(seed),
                         "--quiet", "--report", report])

        def check(code):
            with open(report, encoding="utf-8") as fh:
                record = fh.read().splitlines()[1]
            expected_code, expected_count = SEARCH_ANSWERS[prop][n]
            failures = []
            if code != expected_code:
                failures.append(f"exit code {code}, expected {expected_code}")
            if code == 1:
                found = search_counterexample(prop, UniverseSpec(nat4, n, seed=seed))
                if not isinstance(found, Counterexample) or not replay_counterexample(found):
                    failures.append("the counterexample does not replay")
            elif expected_count is not None and \
                    f"exhausted after {expected_count} instances" not in record:
                failures.append(f"did not exhaust {expected_count} instances: {record}")
            return failures, record

        return Task(f"search.{prop}@{n}", "search", run, check)

    def tasks():
        # a generator: the map tasks are made once the universe task has run
        yield Task("universe", "universe", universe_run, universe_check)
        for i, f in enumerate(state["maps"]):
            yield map_task(i, f)
        for M in state["mods"]:
            yield subobject_task(M)
        for n in search_sizes:
            for prop in sorted(SEARCH_ANSWERS):
                yield search_task(prop, n)

    notes = [f"nat4 universe at max size {bound}; the seed feeds UniverseSpec and the "
             "search --seed, which only order a search that exhausts"]
    return tasks(), notes


def _classification_mismatch(f, c):
    """Criterion 2: k-, i- and uniform flags against the canonical-map oracles,
    recomputed here from quotients and closures."""
    from semiexact.core import subtractive_closure_set
    from semiexact.morphisms import cokernel, image_set, kernel, kernel_set
    from semiexact.quotients import bourne_congruence, quotient

    q = quotient(f.domain, bourne_congruence(kernel(f)))
    table = {}
    for x in f.domain.elements():
        table.setdefault(q.projection.map[x], set()).add(f.map[x])
    well_defined = all(len(v) == 1 for v in table.values())
    img = image_set(f)
    k_oracle = well_defined and len({min(v) for v in table.values()}) \
        == q.quotient.size == len(img)
    i_oracle = kernel_set(cokernel(f).projection) == img
    u_oracle = k_oracle and img == subtractive_closure_set(f.codomain, img)
    out = []
    for flag, got, want in (("k_uniform", c.k_uniform, k_oracle),
                            ("i_uniform", c.i_uniform, i_oracle),
                            ("uniform", c.uniform, u_oracle)):
        if got != want:
            out.append(f"{flag} is {got}, oracle says {want}")
    return out


WORKLOADS = {
    "lemma-corpus": lemma_corpus,
    "universe-export": universe_export,
    "morphism-sweep": morphism_sweep,
}

# tasks of this kind feed task_p50_ms and task_tail_ms
PRIMARY = {"lemma-corpus": "corpus", "universe-export": "export", "morphism-sweep": "map"}
