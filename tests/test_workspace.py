"""Workspace parsing, error location, serialization round-trip."""

import pytest

from semiexact.errors import WorkspaceError
from semiexact.workspace import parse, parse_files, serialize

DEMO = "fixtures/demo.sx"


def test_parse_demo_fixture():
    ws = parse_files([DEMO])
    assert set(ws.semirings) == {"B", "Z2", "T2"}
    assert "C3" in ws.modules and "S3" in ws.modules
    assert set(ws.subs) == {"L", "N"}
    assert "squash" in ws.morphisms
    assert "quot" in ws.sequences
    assert "D" in ws.diagrams


def test_round_trip_demo():
    ws = parse_files([DEMO])
    text = serialize(ws)
    ws2 = parse(text)
    assert ws == ws2
    assert serialize(ws2) == text  # serialization is a fixpoint


def test_dangling_reference():
    with pytest.raises(WorkspaceError) as err:
        parse("morphism f from=missing to=missing map=0\nend\n", file="t")
    kinds = {p.kind for p in err.value.problems}
    assert kinds == {"dangling-reference"}
    assert all(p.file == "t" and p.line == 1 for p in err.value.problems)


def test_axiom_violation_located():
    text = """semiring bad size=2
  add: 0,0; 1,1
  mul: 0,0; 0,1
end
"""
    with pytest.raises(WorkspaceError) as err:
        parse(text, file="t")
    probs = err.value.problems
    assert any(p.kind == "axiom-violation" and "commutative" in p.message
               or "neutral" in p.message for p in probs)


def test_syntax_errors_collected():
    text = """widget w
semiring B size=2
  add: 0,1; 1,1
  mul: 0,0; 0,1
end
morphism f from=nope to=nope map=0
"""
    with pytest.raises(WorkspaceError) as err:
        parse(text, file="t")
    kinds = sorted(p.kind for p in err.value.problems)
    assert "syntax" in kinds  # unknown block and unterminated block both syntax
    assert len(err.value.problems) >= 2


def test_duplicate_definitions_rejected():
    """A second block of the same kind and name is a problem at its header
    that names the first definition, within one file and across files."""
    with pytest.raises(WorkspaceError) as err:
        parse_files([DEMO, DEMO])
    probs = err.value.problems
    assert {p.kind for p in probs} == {"duplicate"}
    assert len(probs) == sum(1 for line in _demo_lines()
                             if line.split()[:1] and line.split()[0] in
                             ("semiring", "module", "sub", "morphism", "sequence",
                              "diagram"))
    first = probs[0]
    assert (first.file, first.line) == (DEMO, 4)
    assert first.message == f"semiring 'B' already defined at {DEMO}:4"
    text = "semiring B size=2\n  add: 0,1; 1,1\n  mul: 0,0; 0,1\nend\n"
    with pytest.raises(WorkspaceError) as err:
        parse(text + "module B over=B size=1\n  add: 0\n  action: 0,0\nend\n" + text,
              file="t")
    (prob,) = err.value.problems
    assert (prob.kind, prob.file, prob.line) == ("duplicate", "t", 9)
    assert "semiring 'B' already defined at t:1" in prob.message


def test_structural_error_located(max3):
    text = """semiring B size=2
  add: 0,1; 1,1
  mul: 0,0; 0,1
end
module M over=B size=2
  add: 0,1; 1,1
  action: 0,0; 0,1
end
sub S of=M members=1
end
"""
    with pytest.raises(WorkspaceError) as err:
        parse(text, file="t")
    assert any(p.kind == "structural" and "zero" in p.message
               for p in err.value.problems)


def test_declared_false_hypothesis_rejected():
    text = """semiring B size=2
  add: 0,1; 1,1
  mul: 0,0; 0,1
end
module M over=B size=2
  add: 0,1; 1,1
  action: 0,0; 0,1
end
morphism z from=M to=M map=0,0
end
diagram D
  row 0: M z M
  row 1: M z M
  col 0: M z M
  hyp: surjective z
end
"""
    with pytest.raises(WorkspaceError) as err:
        parse(text, file="t")
    assert any(p.kind == "hypothesis" for p in err.value.problems)


def _demo_lines():
    with open(DEMO, encoding="utf-8") as fh:
        return fh.read().splitlines()


def test_missing_end_is_located():
    """A block whose `end` is missing stops at the next header, which still
    parses, instead of swallowing it."""
    lines = _demo_lines()
    assert (lines[49], lines[50]) == ("sub N of=S3 members=0,2", "end")
    del lines[50]
    with pytest.raises(WorkspaceError) as err:
        parse("\n".join(lines), file="t")
    probs = err.value.problems
    assert [(p.line, p.kind) for p in probs] == [(50, "syntax")]
    assert "missing `end`" in probs[0].message


def test_bodyless_blocks_reject_body_lines():
    text = """semiring B size=2
  add: 0,1; 1,1
  mul: 0,0; 0,1
end
module M over=B size=2
  add: 0,1; 1,1
  action: 0,0; 0,1
end
sub L of=M members=0,1
  members: 0
end
morphism f from=M to=M map=0,1
  map: 0,0
end
sequence s arrows=f,f
  arrows: f
end
"""
    with pytest.raises(WorkspaceError) as err:
        parse(text, file="t")
    assert [(p.line, p.kind) for p in err.value.problems] == [
        (10, "syntax"), (13, "syntax"), (16, "syntax")]


def test_repeated_diagram_line_is_located():
    """A second `col 2:` line is a problem at its own line, not a silent
    replacement of the first."""
    lines = _demo_lines()
    assert lines[79:81] == ["  col 1: Z idz Z", "  col 2: Z dropZ O"]
    lines[79] = "  col 2: Z dropZ O"
    with pytest.raises(WorkspaceError) as err:
        parse("\n".join(lines), file="t")
    probs = err.value.problems
    assert [(p.line, p.kind) for p in probs] == [(81, "syntax")]
    assert "repeated" in probs[0].message


def test_parser_reads_the_validity_cache(tmp_path, monkeypatch):
    """Modules this process has validated already, here by a corpus export,
    are not validated again when their file is parsed: the parser asks the
    verdict cache the searches read (core._validates) first."""
    from semiexact import core, workspace
    from semiexact.cli import main

    out = tmp_path / "nat4.sx"
    assert main(["corpus", "nat4", "--max-size", "4", "--corpus", str(out), "--quiet"]) == 0
    validate, calls = core.validate_semimodule, []

    def counted(m):
        calls.append(m.name)
        return validate(m)
    monkeypatch.setattr(core, "validate_semimodule", counted)
    monkeypatch.setattr(workspace, "validate_semimodule", counted)
    assert len(parse_files([out]).modules) == 27
    assert calls == []


def test_module_axiom_violations_located():
    """An invalid module is reported with every violation of
    validate_semimodule, in order, at its header line, on a first parse
    and again once its verdict is cached."""
    from semiexact.core import Semimodule, make_boolean, validate_semimodule

    text = ("semiring B size=2\n  add: 0,1; 1,1\n  mul: 0,0; 0,1\nend\n"
            "module M over=B size=2\n  add: 0,1; 1,0\n  action: 0,0; 0,1\nend\n")
    expected = [("t", 5, "axiom-violation", f"module M: {v}") for v in validate_semimodule(
        Semimodule("M", make_boolean(), 2, ((0, 1), (1, 0)), ((0, 0), (0, 1)))).violations]
    assert expected
    for _ in range(2):
        with pytest.raises(WorkspaceError) as err:
            parse(text, file="t")
        assert [(p.file, p.line, p.kind, p.message) for p in err.value.problems] == expected
