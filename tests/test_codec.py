"""The text format's edges: what serialize refuses, and which problems a
parsed block is dropped for, where they are reported, and whether the
dropped block still claims its name."""

import re

import pytest

from semiexact.core import Semimodule, make_zmod
from semiexact.diagrams import Diagram
from semiexact.errors import StructureError, WorkspaceError
from semiexact.workspace import parse, parse_files, serialize

DEMO = "fixtures/demo.sx"


def _with_diagram(nodes, horizontals, verticals):
    ws = parse_files([DEMO])
    z, idz = ws.modules["Z"], ws.morphisms["idz"]
    ws.diagrams["E"] = Diagram("E", [[z] * len(row) for row in nodes],
                               {k: idz for k in horizontals}, {k: idz for k in verticals})
    return ws


def test_serialize_refuses_a_column_that_skips_row_0():
    """A column is written as one chain from row 0, so a diagram whose only
    vertical is at (1, 0) would read back with it at (0, 0)."""
    ws = _with_diagram([[0], [0], [0]], [], [(1, 0)])
    with pytest.raises(StructureError, match=r"diagram E: col 0 has no vertical at row 0"):
        serialize(ws)


def test_serialize_refuses_a_row_with_a_missing_horizontal():
    ws = _with_diagram([[0, 0, 0]], [(0, 0)], [])
    with pytest.raises(StructureError, match=r"diagram E: row 0 has no horizontal at column 1"):
        serialize(ws)


def _add_module_over_z3(ws):
    ws.modules["W"] = Semimodule("W", make_zmod(3), 1, ((0,),), ((0, 0, 0),))


def _add_diagram_over_a_module_it_lacks(ws):
    z = ws.modules["Z"]
    other = Semimodule("Z'", z.semiring, z.size, z.add, z.action, z.zero)
    ws.diagrams["E"] = Diagram("E", [[other]], {}, {})


@pytest.mark.parametrize("edit, message", [
    (lambda ws: ws.modules.pop("C3"), "sub L: module C3 is not in the workspace"),
    (lambda ws: ws.modules.pop("Q2"), "morphism incl: module Q2 is not in the workspace"),
    (lambda ws: ws.morphisms.pop("incl"), "sequence quot: morphism incl is not in the workspace"),
    (lambda ws: ws.morphisms.pop("intoZ"), "diagram D: morphism intoZ is not in the workspace"),
    (_add_diagram_over_a_module_it_lacks, "diagram E: module Z' is not in the workspace"),
    (_add_module_over_z3, "module W: semiring Z3 is not in the workspace"),
], ids=["sub-module", "morphism-module", "sequence-morphism", "diagram-morphism",
        "diagram-module", "module-semiring"])
def test_serialize_names_the_part_with_a_dangling_reference(edit, message):
    """A code-built workspace whose part refers to a semiring, module or
    morphism it lacks is refused with a StructureError naming that part."""
    ws = parse_files([DEMO])
    edit(ws)
    with pytest.raises(StructureError, match=f"^{re.escape(message)}$"):
        serialize(ws)


_S = "semiring S size=2\n  add: 0,1; 1,1\n  mul: 0,0; 0,1\nend\n"
_M = _S + "module M over=S size=2\n  add: 0,1; 1,1\n  action: 0,0; 0,1\nend\n"


@pytest.mark.parametrize("first, again, kinds, claims", [
    ("semiring S size=x\n  add: 0,1; 1,1\n  mul: 0,0; 0,1\nend\n", _S, {"syntax"}, False),
    ("semiring S size=2\n  add: 0,1; 1,1\nend\n", _S, {"syntax"}, False),
    ("semiring S size=2 over=S\n  add: 0,1; 1,1\n  mul: 0,0; 0,1\nend\n", _S, {"syntax"}, False),
    ("semiring S size=2\n  add: 0,1; 1,1\n  mul: 0,0; 0,1\n  mul: 0,0; 0,1\nend\n", _S,
     {"syntax"}, True),
    ("semiring S size=2\n  add: 0,1; 1,1\n  mul: 0,0; 0,2\nend\n", _S, {"structural"}, True),
    ("semiring S size=2\n  add: 0,0; 1,1\n  mul: 0,0; 0,1\nend\n", _S, {"axiom-violation"}, True),
    (_M + "morphism f from=M to=X map=0,1\nend\n", "morphism f from=M to=M map=0,1\nend\n",
     {"dangling-reference"}, True),
    (_M + "morphism f from=M to=M map=0,x\nend\n", "morphism f from=M to=M map=0,1\nend\n",
     {"syntax"}, False),
    (_M + "diagram D\n  row 0: M\n  row 0: M\nend\n", "diagram D\n  row 0: M\nend\n",
     {"syntax"}, True),
    (_M + "diagram D\n  row 0: M\n  hyp: bogus M\nend\n", "diagram D\n  row 0: M\nend\n",
     {"structural"}, True),
], ids=["bad-value", "missing-key", "unknown-attribute", "repeated-key", "structural",
        "axiom-violation", "dangling-reference", "bad-map", "repeated-diagram-line", "bad-tag"])
def test_dropped_blocks_claim_their_name_unless_a_value_is_bad(first, again, kinds, claims):
    """A block dropped for a bad value or a missing or unknown attribute or key
    leaves its name free for a later block; one dropped for any other problem
    claims it, so the later block is a duplicate of it."""
    with pytest.raises(WorkspaceError) as err:
        parse(first + again, file="t")
    found = [p.kind for p in err.value.problems]
    assert set(found) - {"duplicate"} == kinds
    assert found.count("duplicate") == claims


def test_one_unreadable_file_is_an_io_problem_with_the_os_reason(tmp_path):
    binary = tmp_path / "bad.sx"
    binary.write_bytes(b"\xff\xfe")
    with pytest.raises(WorkspaceError) as err:
        parse_files([tmp_path / "missing.sx", binary])
    missing, undecodable = err.value.problems
    assert missing == (str(tmp_path / "missing.sx"), 0, "io", "No such file or directory")
    assert undecodable[:3] == (str(binary), 0, "io")
    assert undecodable.message.startswith("'utf-8' codec can't decode byte 0xff")


def test_workspaces_differing_in_one_part_are_unequal():
    ws = parse_files([DEMO])
    for part in ("semirings", "modules", "subs", "morphisms", "sequences", "diagrams"):
        other = parse_files([DEMO])
        getattr(other, part).popitem()
        assert other != ws, part


@pytest.mark.parametrize("text", ["row 0 1: M", "cell 0: M", "row 0: M f"],
                         ids=["three-words", "not-row-or-col", "ends-with-an-arrow"])
def test_each_malformed_diagram_line_is_located(text):
    """A diagram line needs `row k:` or `col k:` and an odd chain of names; a
    line that breaks any one of these is a syntax problem at its own line."""
    with pytest.raises(WorkspaceError) as err:
        parse(_M + f"diagram D\n  {text}\nend\n", file="t")
    assert [tuple(p) for p in err.value.problems] == [
        ("t", 10, "syntax", f"bad diagram line {text!r}")]


@pytest.mark.parametrize("col", ["col 0: M f M f M", "col 2: M f M"],
                         ids=["longer-than-the-grid", "right-of-the-grid"])
def test_a_column_past_the_grid_on_one_side_is_located(col):
    """A column is past the grid when it runs below the last row, or when
    it stands right of a row's last node, each on its own."""
    grid = "morphism f from=M to=M map=0,1\nend\ndiagram D\n  row 0: M f M\n  row 1: M f M\n"
    with pytest.raises(WorkspaceError) as err:
        parse(_M + grid + f"  {col}\nend\n", file="t")
    assert [tuple(p) for p in err.value.problems] == [
        ("t", 14, "structural", f"diagram D: col {col[4]} is past the grid")]
