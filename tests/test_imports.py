"""Every name a package module imports is used in that module.

__init__ re-exports its imports and is exempt. A name counts as used when it
appears as an identifier anywhere in the module body, annotations included.

Importing the CLI stays light: no package module imports dataclasses, and
`import semiexact.cli` loads neither dataclasses nor inspect. The package
resolves its public names on first use, and no module a corpus export runs
imports a lemma layer (diagrams, exactness, harness) or a map layer
(morphisms, quotients, catalog) when it is imported, so each command loads
only the layers it runs. Neither does the lemma path load what it does not
run: the CLI and the lemma layers, imported and run, load neither the
workspace codec and the builtin fixtures nor the sequence analysis
(exactness), which only a workspace's sequence block or the exactness
command reads.

The catalog's names that perfbench still reads from enumeration resolve
there to the catalog's own objects.
"""

import ast
import json
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import semiexact
from semiexact.cli import main

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "semiexact"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_reported():
    source = ("from .morphisms import compose, is_zero_morphism, kernel\n"
              "import random\n"
              "def f(x):\n"
              "    return kernel(x), random.random()\n")
    assert unused_imports(source) == [(1, "compose"), (1, "is_zero_morphism")]


def imported_modules(source):
    tree = ast.parse(source)
    return ({alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names}
            | {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)})


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_dataclasses(path):
    assert "dataclasses" not in imported_modules(path.read_text(encoding="utf-8"))


def test_cli_import_leaves_out_dataclasses_and_inspect(src_env):
    """A module count, not a timing: each of these costs every CLI run import
    time, and dataclasses also generates and compiles code per class."""
    code = "import sys, semiexact.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], env=src_env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"


# the public names of the package by home module
PUBLIC = {
    "core": """Element Semimodule Semiring Subsemimodule ValidationReport Violation
        all_subsemimodules generators is_cancellable is_cancellative_module is_subtractive
        make_boolean make_natural_quotient make_product make_saturating_naturals
        make_truncated_minplus make_zmod module_from_monoid monoid_semiring self_module
        subtractive_closure subtractive_closure_set validate_semimodule validate_semiring
        zero_module""",
    "errors": """HypothesisError LemmaRefuted ParameterError PreconditionError SemiexactError
        StructureError WorkspaceError""",
    "exactness": """ExactnessVerdict KerCokerResult Sequence ShortExactResult SubobjectCharacter
        analyze is_short_exact ker_coker_sequence short_sequence subobject_character""",
    "morphisms": """Morphism MorphismClassification canonical_iso classify cokernel coimage
        compose enumerate_hom hom_add identity_morphism image induced_from_cokernel
        induced_to_kernel is_cancellative_morphism kernel submodule_as_module zero_morphism""",
    "quotients": """Congruence QuotientModule bourne_congruence kernel_pair_congruence
        projection_kernel_is_closure quotient""",
}


def test_all_is_the_public_names():
    homes = {name: home for home, names in PUBLIC.items() for name in names.split()}
    assert len(homes) == 65
    assert set(semiexact.__all__) == homes.keys()
    assert homes.keys() <= set(dir(semiexact))
    for name, home in homes.items():
        assert getattr(semiexact, name) is getattr(import_module(f"semiexact.{home}"), name)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        getattr(semiexact, "no_such_name")


def test_star_import_binds_no_module(src_env):
    code = ("import json as _json, types as _types\n"
            "from semiexact import *\n"
            "names = [n for n in dir() if not n.startswith('_')]\n"
            "print(_json.dumps([names, [n for n in names\n"
            "                           if isinstance(globals()[n], _types.ModuleType)]]))")
    proc = subprocess.run([sys.executable, "-c", code], env=src_env, capture_output=True,
                          text=True, check=True)
    names, modules = json.loads(proc.stdout)
    assert names == semiexact.__all__ and modules == []


# the lemma layers, the layers of maps, and the modules a corpus export imports
LEMMA_LAYERS = ("diagrams", "exactness", "harness")
MAP_LAYERS = ("morphisms", "quotients", "catalog")
CORPUS_PATH = ("__init__.py", "core.py", "enumeration.py", "workspace.py", "fixtures.py",
               "cli.py")


def import_time_imports(source, file, layers):
    """file:line of each import that runs when the module is imported (any
    import outside a function body) and names one of layers."""
    found, todo = [], list(ast.parse(source).body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        todo.extend(ast.iter_child_nodes(node))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
            if set(layers) & {part for n in names for part in n.split(".")}:
                found.append(f"{file}:{node.lineno}")
    return sorted(found)


@pytest.mark.parametrize("name", CORPUS_PATH)
def test_corpus_path_imports_no_lemma_layer_at_import_time(name):
    path = PACKAGE / name
    assert import_time_imports(path.read_text(encoding="utf-8"), path.name,
                               LEMMA_LAYERS) == []


@pytest.mark.parametrize("name", CORPUS_PATH)
def test_corpus_path_imports_no_map_layer_at_import_time(name):
    path = PACKAGE / name
    assert import_time_imports(path.read_text(encoding="utf-8"), path.name,
                               MAP_LAYERS) == []


def test_lemma_layer_import_is_reported():
    source = ("from .core import Semiring\n"
              "from .diagrams import CLAUSES\n"
              "if True:\n"
              "    from . import harness\n"
              "class C:\n"
              "    import semiexact.exactness\n"
              "def f():\n"
              "    from .diagrams import snake\n")
    assert import_time_imports(source, "m.py", LEMMA_LAYERS) == ["m.py:2", "m.py:4", "m.py:6"]
    assert import_time_imports(source + "from .catalog import PROPERTIES\n", "m.py",
                               MAP_LAYERS) == ["m.py:9"]


RUN_COMMANDS = """\
import json, sys
import semiexact.cli as cli

def layers():
    return sorted(m for m in sys.modules if m in {layers!r})

seen = [layers()]
for argv in json.loads(sys.argv[1]):
    seen.append([cli.main(argv), layers()])
print(json.dumps(seen), file=sys.stderr)
""".format(layers={f"semiexact.{name}" for name in LEMMA_LAYERS + MAP_LAYERS})


def run_commands(calls, env):
    """Run main on each argv of calls in one fresh interpreter: (stdout, the
    lemma and map layers loaded on import, [exit code, those layers loaded]
    per call)."""
    proc = subprocess.run([sys.executable, "-c", RUN_COMMANDS, json.dumps(calls)], env=env,
                          capture_output=True, text=True, check=True)
    before, *after = json.loads(proc.stderr.splitlines()[-1])
    return proc.stdout, before, after


def test_each_command_loads_only_its_layers(src_env, tmp_path):
    """Module sets, not timings: importing the CLI and exporting a corpus
    load no lemma or map layer; the demo workspace's diagrams and sequence
    load the lemma layers and morphisms and quotients, and a search the
    catalog too; a search with no workspace loads the map layers only. The
    same runs one after another in one process (where each loads the union
    of its own layers and those before), or in this one with every layer
    loaded, give the same output."""
    demo = str(ROOT / "fixtures" / "demo.sx")
    calls = [["corpus", "B", "--max-size", "3", "--quiet", "--corpus"],
             ["search", "semi-mono-not-mono", "nat3", "--report"],
             ["lemma", "short-five-half.1", "D", demo, "--report"],
             ["snake", "D", demo, "--report"],
             ["classify", "squash", demo, "--report"],
             ["search", "semi-mono-not-mono", "T2", demo, "--report"]]
    maps_loaded = sorted(f"semiexact.{name}" for name in MAP_LAYERS)
    demo_loaded = sorted(f"semiexact.{name}" for name in ("diagrams", "exactness",
                                                          "morphisms", "quotients"))
    expected = [[0, []], [1, maps_loaded], [0, demo_loaded], [0, demo_loaded],
                [0, demo_loaded], [1, sorted(demo_loaded + ["semiexact.catalog"])]]
    outputs = []
    for i, call in enumerate(calls):
        out, before, after = run_commands([call + [str(tmp_path / f"alone{i}")]], src_env)
        assert before == [] and after == [expected[i]]
        outputs.append(out)
    out, _, after = run_commands([c + [str(tmp_path / f"together{i}")]
                                       for i, c in enumerate(calls)], src_env)
    assert after == [[code, sorted({m for _, ms in expected[:i + 1] for m in ms})]
                     for i, (code, _) in enumerate(expected)]
    assert out == "".join(outputs) and "verified" in outputs[2] and "delta" in outputs[3]
    assert "semi_mono          true" in outputs[4]
    assert all("counterexample found for semi-mono-not-mono" in outputs[i] for i in (1, 5))
    for i, call in enumerate(calls):
        assert main(call + [str(tmp_path / f"here{i}")]) == expected[i][0]
        alone = (tmp_path / f"alone{i}").read_text(encoding="utf-8")
        assert alone == (tmp_path / f"together{i}").read_text(encoding="utf-8")
        assert alone == (tmp_path / f"here{i}").read_text(encoding="utf-8")


LEMMA_PATH = """\
import json, sys
import semiexact.cli, semiexact.diagrams, semiexact.harness
from semiexact.core import make_zmod
from semiexact.diagrams import snake, verify_lemma_short
from semiexact.harness import HarnessSpec, gen_lemma_short, gen_snake

def loaded():
    return sorted(m for m in sys.modules if m.startswith("semiexact"))

before = loaded()
spec = HarnessSpec(make_zmod(2), 3, seed=11, quota=2)
oks = [verify_lemma_short(d, 1).ok for d in gen_lemma_short(spec, 1)]
oks += [snake(d).ok for d in gen_snake(spec)]
print(json.dumps([before, loaded(), oks]))
"""


def test_lemma_path_loads_no_codec_or_sequence_layer(src_env):
    """A module set, not a timing: the CLI and the lemma layers, imported
    and then run on one short-lemma and one snake corpus, load neither the
    workspace codec and the builtin fixtures nor the sequence analysis, and
    the runs load no module that the imports did not."""
    proc = subprocess.run([sys.executable, "-c", LEMMA_PATH], env=src_env, capture_output=True,
                          text=True, check=True)
    before, after, oks = json.loads(proc.stdout)
    assert oks == [True] * 4
    assert before == after == ["semiexact"] + [f"semiexact.{name}" for name in (
        "cli", "core", "diagrams", "enumeration", "errors", "harness", "morphisms", "quotients")]


# the names perfbench/workloads.py and perfbench/tracing.py read from enumeration
MOVED = ("Counterexample", "is_epimorphism", "is_monomorphism", "replay_counterexample",
         "search_counterexample", "universe_with_free_module", "PROPERTIES")


def test_moved_names_are_the_catalogs_own_objects():
    enumeration, catalog = (import_module(f"semiexact.{m}") for m in ("enumeration", "catalog"))
    for name in MOVED:
        assert getattr(enumeration, name) is getattr(catalog, name), name
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        getattr(enumeration, "no_such_name")
    with pytest.raises(AttributeError, match="has no attribute 'Property'"):
        getattr(enumeration, "Property")  # moved, but read from the catalog only


def test_search_calls_a_searcher_rebound_through_enumeration(monkeypatch):
    """perfbench's tracer counts searched instances by rebinding entries of
    enumeration.PROPERTIES in place; a search must call the rebound one."""
    from semiexact.core import make_boolean
    from semiexact.enumeration import UniverseSpec

    enumeration, catalog = (import_module(f"semiexact.{m}") for m in ("enumeration", "catalog"))
    pid = "mono-not-injective"
    description, searcher, replay = enumeration.PROPERTIES[pid]
    calls = []

    def counted(spec):
        calls.append(spec)
        return searcher(spec)

    monkeypatch.setitem(enumeration.PROPERTIES, pid, (description, counted, replay))
    spec = UniverseSpec(make_boolean(), 2)
    outcome = catalog.search_counterexample(pid, spec)
    assert calls == [spec] and outcome.searched == searcher(spec)[1]
