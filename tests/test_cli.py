"""CLI behavior: exit codes, reports, determinism, corpus export."""

import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from semiexact.cli import COMMANDS, build_parser, main
from semiexact.diagrams import CLAUSES
from semiexact.catalog import PROPERTIES
from semiexact.core import make_boolean
from semiexact.fixtures import builtin_semirings

DEMO = "fixtures/demo.sx"


def run(args, tmp_path=None):
    return main(list(args))


def test_validate_ok(capsys):
    assert run(["validate", DEMO]) == 0
    out = capsys.readouterr().out
    assert "workspace ok" in out


def test_validate_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.sx"
    bad.write_text("semiring S size=2\n  add: 0,0; 1,1\n  mul: 0,0; 0,1\nend\n")
    assert run(["validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "axiom-violation" in err


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
def test_unreadable_input_is_a_located_problem(kind, tmp_path, capsys):
    """A file that cannot be read is an `io` problem at line 0: exit 2, never
    the traceback and exit 1 of an unhandled error."""
    path = tmp_path / "input.sx"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(b"semiring S size=2\n  add: \xff\n")
    report = tmp_path / "r.txt"
    assert run(["validate", str(path), "--report", str(report)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}:0: io: ")
    assert f"parse.io.{path}:0|error|" in report.read_text(encoding="utf-8")


@pytest.mark.parametrize("args", [
    ["validate", DEMO, "--report", "{bad}"],
    ["validate", "missing.sx", "--report", "{bad}"],  # written from the error handler
    ["corpus", "B", "--max-size", "2", "--corpus", "{bad}"],
])
def test_unwritable_output_exits_2(args, tmp_path, capsys):
    bad = str(tmp_path / "no-such-dir" / "out.txt")
    assert run([a.format(bad=bad) for a in args] + ["--quiet"]) == 2
    assert f"error: cannot write {bad}: No such file or directory" in capsys.readouterr().err


def _mutants(lines, count, seed):
    """count copies of lines, each with one line deleted, truncated,
    duplicated or with one character replaced (or appended), chosen by a
    seeded Random."""
    rng = random.Random(seed)
    for _ in range(count):
        out = list(lines)
        i = rng.randrange(len(out))
        op = rng.choice(("delete", "truncate", "duplicate", "edit"))
        if op == "delete":
            del out[i]
        elif op == "truncate":
            out[i] = out[i][:rng.randrange(len(out[i]) + 1)]
        elif op == "duplicate":
            out.insert(i, out[i])
        else:
            at = rng.randrange(len(out[i]) + 1)
            out[i] = out[i][:at] + rng.choice("0123456789,;:=- #abxyzZ") + out[i][at + 1:]
        yield out


def test_validate_mutation_fuzz(tmp_path, capsys):
    """300 one-line mutations of the demo workspace: each validates (exit 0)
    or is rejected with a file:line problem (exit 2), never a traceback."""
    lines = Path(DEMO).read_text(encoding="utf-8").splitlines()
    path = str(tmp_path / "mutant.sx")
    codes = []
    for mutant in _mutants(lines, 300, seed=2012):
        Path(path).write_text("\n".join(mutant) + "\n", encoding="utf-8")
        codes.append(run(["validate", path]))
        err = capsys.readouterr().err
        assert codes[-1] in (0, 2), mutant
        if codes[-1] == 2:
            assert re.search(re.escape(path) + r":\d+", err), (mutant, err)
    assert 0 in codes and 2 in codes


@pytest.mark.parametrize("command,name,kind", [("snake", "D", "diagram"),
                                                ("classify", "squash", "morphism"),
                                                ("exactness", "quot", "sequence")])
def test_command_mutation_fuzz(command, name, kind, tmp_path, capsys):
    """300 one-line mutations of the demo workspace through a command on one
    of its blocks: each exits 0, 1 or 2, never a traceback, and each exit 2
    names a file:line, unless the block's header was mutated away and the
    command reports that no block of that name exists."""
    lines = Path(DEMO).read_text(encoding="utf-8").splitlines()
    path = str(tmp_path / "mutant.sx")
    header = re.compile(rf"\s*{kind}\s+{name}(\s|$)")
    codes = []
    for mutant in _mutants(lines, 300, seed=2012):
        Path(path).write_text("\n".join(mutant) + "\n", encoding="utf-8")
        codes.append(run([command, name, path]))
        err = capsys.readouterr().err
        assert codes[-1] in (0, 1, 2), mutant
        if codes[-1] == 2 and not re.search(re.escape(path) + r":\d+", err):
            assert f"no {kind} named {name!r}" in err, (mutant, err)
            assert not any(header.match(line) for line in mutant), (mutant, err)
    assert 0 in codes and 2 in codes


def test_shape_error_names_the_diagram_header(tmp_path, capsys):
    """A diagram that parses but lacks a column the lemma needs is rejected
    at the file:line of its header."""
    lines = Path(DEMO).read_text(encoding="utf-8").splitlines()
    assert lines[75] == "diagram D" and lines[79] == "  col 1: Z idz Z"
    del lines[79]
    path = tmp_path / "partial.sx"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for args in (["snake", "D"], ["lemma", "short.1", "D"]):
        assert run(args + [str(path)]) == 2
        assert f"{path}:76: " in capsys.readouterr().err


@pytest.mark.parametrize("tag, problem", [
    ("bogus", "unknown hypothesis tag 'bogus'"),
    ("bogus nothere", "unknown hypothesis tag 'bogus nothere'"),
    ("row-exact 2", "hypothesis tag 'row-exact 2' names no row"),
    ("cancellative Nope", "hypothesis tag 'cancellative Nope' names no module")])
def test_malformed_hypothesis_tag_is_located(tag, problem, tmp_path, capsys):
    """A hyp: tag of an unknown kind, or one that names no part of the grid,
    is a structural problem at the tag's own file:line: its kind is checked
    before its argument is looked up."""
    lines = Path(DEMO).read_text(encoding="utf-8").splitlines()
    assert lines[75] == "diagram D"
    lines.insert(76, f"  hyp: {tag}")
    path = tmp_path / "tagged.sx"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run(["validate", str(path)]) == 2
    assert f"{path}:77: structural: diagram D: {problem}\n" in capsys.readouterr().err


def test_hypothesis_tags_are_located_at_their_own_line(tmp_path, capsys):
    """A declared tag that fails is a hypothesis problem at its own line, the
    first failing tag only; a grid whose shape is wrong is still reported at
    the header, whatever its tags."""
    lines = Path(DEMO).read_text(encoding="utf-8").splitlines()
    assert lines[75] == "diagram D" and lines[81:84] == [
        "  hyp: surjective idz", "  hyp: cancellative Z", "end"]
    path = tmp_path / "tagged.sx"
    tagged = lines[:83] + ["  hyp: injective dropZ", "  hyp: surjective intoZ"] + lines[83:]
    path.write_text("\n".join(tagged) + "\n", encoding="utf-8")
    assert run(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"{path}:84: hypothesis: hypothesis diagram D: declared 'injective dropZ' " \
           "violated (injective dropZ fails)\n" in err
    assert f"{path}:85:" not in err
    reshaped = tagged[:78] + ["  col 0: Z idz Z"] + tagged[79:]
    path.write_text("\n".join(reshaped) + "\n", encoding="utf-8")
    assert run(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"{path}:76: structural: diagram D: vertical at (0,0) does not match " \
           "its nodes\n" in err
    assert f"{path}:84:" not in err


def test_classify_exit_and_flags(capsys):
    assert run(["classify", "squash", DEMO]) == 0
    out = capsys.readouterr().out
    assert "k_uniform          false" in out
    assert "witness: pair (1,2)" in out


def test_classify_missing_name(capsys):
    assert run(["classify", "nope", DEMO]) == 2


def test_exactness(capsys):
    assert run(["exactness", "quot", DEMO]) == 0
    out = capsys.readouterr().out
    assert "exact=True" in out


def test_snake_ok(capsys):
    assert run(["snake", "D", DEMO]) == 0
    out = capsys.readouterr().out
    assert "delta: 0,1" in out
    assert "verified" in out


def test_lemma_unknown_name(capsys):
    assert run(["lemma", "bogus", "D", DEMO]) == 2
    assert "unknown lemma" in capsys.readouterr().err


def test_readme_and_help_name_every_lemma(capsys, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    monkeypatch.setenv("COLUMNS", "1000")  # no wrapping inside hyphenated names
    for command, names in (("lemma", CLAUSES), ("search", PROPERTIES)):
        with pytest.raises(SystemExit):
            run([command, "--help"])
        help_text = capsys.readouterr().out
        for name in names:
            assert f"`{name}`" in readme
            assert name in help_text
    assert "9-1.1-2" not in readme and "9-3.1-2" not in readme


TOP_HELP = """\
usage: semiexact [-h] [--version]
                 {validate,classify,exactness,lemma,snake,search,corpus} ...

Exactness kernel for finite semirings and semimodules

positional arguments:
  {validate,classify,exactness,lemma,snake,search,corpus}
    validate            parse and validate workspace files
    classify            classify a morphism
    exactness           analyze a sequence
    lemma               verify a diagram lemma
    snake               run the snake construction on a 2x3 diagram
    search              search the counterexample catalog
    corpus              export the enumerated module corpus

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
"""


def _exit_output(parse, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


@pytest.mark.parametrize("command", list(COMMANDS))
def test_one_command_parser_matches_the_full_parser(command, capsys, monkeypatch):
    """build_parser(command) holds that command's subparser alone, under the
    full parser's usage line and with its help and errors for the command;
    main's help and errors, an option before the command included, are the
    full parser's, and an unknown command still lists every choice."""
    monkeypatch.setenv("COLUMNS", "80")
    full, alone = build_parser(), build_parser(command)
    assert list(alone._actions[-1].choices) == [command]
    assert alone.format_usage() == full.format_usage()
    for argv in ([command, "--help"], [command, "--bogus"]):
        assert _exit_output(alone.parse_args, argv, capsys) == \
            _exit_output(full.parse_args, argv, capsys)
    for argv in (["--help"], [command, "--help"], [], ["bogus"], [command, "--bogus"],
                 ["--help", command], ["--bogus", command]):
        assert _exit_output(main, argv, capsys) == _exit_output(full.parse_args, argv, capsys)
    assert _exit_output(main, ["--help"], capsys) == (0, TOP_HELP, "")
    choices = ", ".join(f"'{name}'" for name in COMMANDS)
    assert f"invalid choice: 'bogus' (choose from {choices})" in \
        _exit_output(main, ["bogus"], capsys)[2]


def test_lemma_hypothesis_error(tmp_path, capsys):
    # short-five on a diagram whose middles are not cancellative
    text = """semiring T2 size=3
  add: 0,1,2; 1,2,2; 2,2,2
  mul: 0,0,0; 0,1,2; 0,2,2
end
module S3 over=T2 size=3
  add: 0,1,2; 1,2,2; 2,2,2
  action: 0,0,0; 0,1,2; 0,2,2
end
module O over=T2 size=1
  add: 0
  action: 0,0,0
end
morphism ids from=S3 to=S3 map=0,1,2
end
morphism into from=O to=S3 map=0
end
morphism ido from=O to=O map=0
end
diagram W
  row 0: O into S3 ids S3
  row 1: O into S3 ids S3
  col 0: O ido O
  col 1: S3 ids S3
  col 2: S3 ids S3
end
"""
    f = tmp_path / "w.sx"
    f.write_text(text)
    assert run(["lemma", "short-five", "W", str(f)]) == 2
    err = capsys.readouterr().err
    assert "cancellative" in err and "violated by element 1" in err


def test_lemma_hypothesis_error_names_the_diagram(tmp_path, capsys):
    """A hypothesis that fails on a parsed diagram is reported at the
    diagram header's file:line; the report keeps the id and witness."""
    report = tmp_path / "r.txt"
    assert run(["lemma", "short.1", "D", DEMO, "--report", str(report)]) == 2
    assert capsys.readouterr().err == (
        f"hypothesis error: {DEMO}:76: hypothesis short.1: alpha1 surjective "
        "violated (intoZ misses part of Z)\n")
    assert report.read_text().splitlines()[1:] == [
        "hypothesis|error|short.1: alpha1 surjective: intoZ misses part of Z|0"]


def test_validate_rejects_duplicate_definitions(tmp_path, capsys):
    report = tmp_path / "r.txt"
    assert run(["validate", DEMO, DEMO, "--report", str(report)]) == 2
    err = capsys.readouterr().err
    assert f"error: {DEMO}:76: duplicate: diagram 'D' already defined at {DEMO}:76" in err
    assert "parse.duplicate.fixtures/demo.sx:76|error|" in report.read_text()


# one block of each kind; line 1 of the file is line 1 here
SMALL = """semiring B size=2
  add: 0,1; 1,1
  mul: 0,0; 0,1
end
module M over=B size=2
  add: 0,1; 1,1
  action: 0,0; 0,1
end
sub L of=M members=0,1
end
morphism f from=M to=M map=0,1
end
sequence s arrows=f,f
end
diagram D
  row 0: M f M
end
"""


@pytest.mark.parametrize("line, text, problem", [
    (5, "module M over=B size=2 zero=1", "5: syntax: bad module block: unknown attribute 'zero'"),
    (1, "semiring B size=2 zero=5", "1: syntax: bad semiring block: unknown attribute 'zero'"),
    (1, "semiring B size=2 size=3", "1: syntax: bad semiring block: repeated attribute 'size'"),
    (5, "module M over=B over=B size=2", "5: syntax: bad module block: repeated attribute 'over'"),
    (9, "sub L of=M members=0,1 of=M", "9: syntax: bad sub block: repeated attribute 'of'"),
    (11, "morphism f from=M to=M map=0,1 map=0,0",
     "11: syntax: bad morphism block: repeated attribute 'map'"),
    (13, "sequence s arrows=f,f order=2",
     "13: syntax: bad sequence block: unknown attribute 'order'"),
    (15, "diagram D over=B", "15: syntax: bad diagram block: unknown attribute 'over'"),
    (3, "  add: 0,1; 1,1", "3: syntax: repeated key 'add', first at line 2"),
    (6, "  action: 0,0; 0,1", "7: syntax: repeated key 'action', first at line 6"),
    (3, "  mult: 0,0; 0,1", "3: syntax: unknown key 'mult'"),
    (6, "  one: 1", "6: syntax: unknown key 'one'"),
    (3, "  mul 0,0; 0,1",
     "3: syntax: bad semiring block: expected 'key: value', got 'mul 0,0; 0,1'"),
], ids=["module-zero", "semiring-zero", "semiring-size-twice", "module-over-twice",
        "sub-of-twice", "morphism-map-twice", "sequence-unknown", "diagram-unknown",
        "semiring-key-twice", "module-action-twice", "semiring-unknown-key",
        "module-unknown-key", "body-line-without-colon"])
def test_unknown_or_repeated_attributes_are_located(line, text, problem, tmp_path, capsys):
    """An attribute or body key the block does not take, or one given twice,
    is a syntax problem at the line where it appears: exit 2, never a silent
    default or overwrite. `line` of the valid SMALL is replaced by `text`."""
    good = tmp_path / "good.sx"
    good.write_text(SMALL)
    assert run(["validate", str(good), "--quiet"]) == 0
    assert_small_problem(line, text, problem, tmp_path, capsys)


def assert_small_problem(line, text, problem, tmp_path, capsys):
    """validate exits 2 on SMALL with `line` replaced by `text`, reporting problem."""
    lines = SMALL.splitlines()
    lines[line - 1] = text
    path = tmp_path / "bad.sx"
    path.write_text("\n".join(lines) + "\n")
    assert run(["validate", str(path)]) == 2
    assert f"error: {path}:{problem}\n" in capsys.readouterr().err


@pytest.mark.parametrize("line, text, problem", [
    (1, "semiring", "1: syntax: semiring block needs a name"),
    (5, "module M size=2", "5: syntax: bad module block: missing attribute 'over'"),
    (2, "  one: 1", "1: syntax: bad semiring block: missing key 'add'"),
    (9, "sub L of=M", "9: syntax: bad sub block: missing attribute 'members'"),
    (11, "morphism f from=M", "11: syntax: bad morphism block: missing attributes 'to', 'map'"),
], ids=["no-name", "module-over", "semiring-add", "sub-members", "morphism-to-map"])
def test_missing_parts_are_named(line, text, problem, tmp_path, capsys):
    """A header with no name, or a block without a required attribute or body
    key, is a syntax problem at the block's header that says what is missing."""
    assert_small_problem(line, text, problem, tmp_path, capsys)


@pytest.mark.parametrize("text, problem", [
    ("  row 0: M\n  row 5: M", "17: syntax: diagram row 5 where row 1 is due"),
    ("  row 0: M f M\n  row 2: M f M", "17: syntax: diagram row 2 where row 1 is due"),
    ("  row 1: M f M", "16: syntax: diagram row 1 where row 0 is due"),
    ("  row x: M f M", "16: syntax: bad diagram block: row number: 'x' is not an integer"),
    ("  row 0: M f M\n  col 3: M f M",
     "17: structural: diagram D: col 3 is past the grid"),
    ("  row 0: M f M\nend\nmodule N over=B size=1\n  add: 0\n  action: 0,0\nend\n"
     "diagram E\n  row 0: M f M\n  row 1: M f M\n  col 0: N f N\n  col 1: N f N",
     "25: structural: diagram E: col 0 reads N f N, but f runs M -> M"),
], ids=["one-node-rows", "arrow-rows", "no-row-0", "not-a-number", "col-past-grid",
        "col-names-not-its-arrows"])
def test_row_numbering_gaps_are_located(text, problem, tmp_path, capsys):
    """Diagram rows are numbered 0, 1, 2, ... (in any order): a gap is a
    syntax problem at the first row line past it, never a silent renumbering
    or a shape failure at the header; so is a column past the grid, at its
    own line, and so is a column whose module names are not the ends of its
    arrows (here a one-element N around f: M -> M), which the grid's own
    nodes would otherwise pass. Line 16 of SMALL is `row 0: M f M`."""
    assert_small_problem(16, text, problem, tmp_path, capsys)


@pytest.mark.parametrize("line, text, problem", [
    (6, "  add: 0,1; 1,x", "6: syntax: bad module block: key 'add': 'x' is not an integer"),
    (7, "  action: 0,0; 0,", "7: syntax: bad module block: key 'action': '' is not an integer"),
    (3, "  mul: 0,0; 0,1.5", "3: syntax: bad semiring block: key 'mul': '1.5' is not an integer"),
    (2, "  add: 0,1; 1,1\n  zero: z",
     "3: syntax: bad semiring block: key 'zero': 'z' is not an integer"),
    (2, "  add: 0,1; 1,1\n  one:", "3: syntax: bad semiring block: key 'one' is empty"),
    (7, "  action: 0,0; 0,1\n  zero: -", "8: syntax: bad module block: key 'zero': '-' is not an integer"),
    (1, "semiring B size=two",
     "1: syntax: bad semiring block: attribute 'size': 'two' is not an integer"),
    (9, "sub L of=M members=", "9: syntax: bad sub block: attribute 'members' is empty"),
    (9, "sub L of=M members=0,1x",
     "9: syntax: bad sub block: attribute 'members': '1x' is not an integer"),
    (11, "morphism f from=M to=M map=0,q",
     "11: syntax: bad morphism block: attribute 'map': 'q' is not an integer"),
], ids=["add", "action", "mul", "semiring-zero", "one", "module-zero", "size", "members-empty",
        "members", "map"])
def test_bad_integers_are_located(line, text, problem, tmp_path, capsys):
    """A value that is not an integer is a syntax problem at the line of the
    key that holds it (the body line, or the header for an attribute) that
    names the key and the token, or says that the value is empty."""
    assert_small_problem(line, text, problem, tmp_path, capsys)


@pytest.mark.parametrize("line, text, problem", [
    (1, "semiring B size=0", "1: structural: semiring B: size must be >= 1"),
    (2, "  add: 0,1; 1,1\n  one: 2", "1: structural: semiring B: constant 2 out of range"),
    (5, "module M over=B size=0", "5: structural: module M: size must be >= 1"),
    (7, "  action: 0,0; 0,1\n  zero: 2", "5: structural: module M: zero 2 out of range"),
    (13, "module N over=B size=1\n  add: 0\n  action: 0,0\nend\n"
         "morphism g from=N to=N map=0\nend\nsequence s arrows=f,g",
     "19: structural: sequence s: f and g do not chain"),
], ids=["semiring-size", "semiring-constant", "module-size", "module-zero", "sequence-chain"])
def test_structure_checks_are_located(line, text, problem, tmp_path, capsys):
    """A semiring or module whose size or constants are out of range, and a
    sequence whose arrows do not chain, is a structural problem at the
    block's header."""
    assert_small_problem(line, text, problem, tmp_path, capsys)


def test_lemma_verified(capsys, tmp_path):
    text = """semiring Z2 size=2
  add: 0,1; 1,0
  mul: 0,0; 0,1
end
module Z over=Z2 size=2
  add: 0,1; 1,0
  action: 0,0; 0,1
end
module O over=Z2 size=1
  add: 0
  action: 0,0
end
morphism idz from=Z to=Z map=0,1
end
morphism into from=O to=Z map=0
end
morphism ido from=O to=O map=0
end
diagram V
  row 0: O into Z idz Z
  row 1: O into Z idz Z
  col 0: O ido O
  col 1: Z idz Z
  col 2: Z idz Z
end
"""
    f = tmp_path / "v.sx"
    f.write_text(text)
    assert run(["lemma", "short-five", "V", str(f)]) == 0
    assert "verified" in capsys.readouterr().out
    assert run(["lemma", "short.3", "V", str(f)]) == 0


def test_search_exit_codes(capsys):
    assert run(["search", "non-subtractive-subsemimodule", "nat3",
                "--max-size", "3", "--quiet"]) == 1
    assert run(["search", "cancellative-epi-not-surjective", "nat3",
                "--max-size", "3", "--quiet"]) == 0
    assert run(["search", "unknown-prop", "nat3"]) == 2


def test_report_determinism(tmp_path):
    r1, r2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
    assert run(["snake", "D", DEMO, "--report", str(r1), "--quiet"]) == 0
    assert run(["snake", "D", DEMO, "--report", str(r2), "--quiet"]) == 0
    b1, b2 = r1.read_bytes(), r2.read_bytes()
    assert b1 == b2
    assert b1.startswith(b"# semiexact-report")
    for line in b1.decode().strip().splitlines()[1:]:
        parts = line.split("|")
        assert len(parts) == 4 and parts[3] == "0"
    ids = [l.split("|")[0] for l in b1.decode().strip().splitlines()[1:]]
    assert ids == sorted(ids)


def test_corpus_round_trip(tmp_path):
    out = tmp_path / "corpus.sx"
    assert run(["corpus", "B", "--max-size", "3", "--corpus", str(out),
                "--quiet"]) == 0
    assert run(["validate", str(out), "--quiet"]) == 0
    from semiexact.workspace import parse_files, serialize, parse
    ws = parse_files([out])
    assert parse(serialize(ws)) == ws
    assert len(ws.modules) >= 3


def test_corpus_without_a_path_writes_the_workspace_to_stdout(tmp_path, capsys):
    """corpus S with no --corpus writes to stdout the bytes that --corpus
    writes to its file."""
    out = tmp_path / "corpus.sx"
    assert run(["corpus", "B", "--max-size", "3", "--corpus", str(out), "--quiet"]) == 0
    capsys.readouterr()
    assert run(["corpus", "B", "--max-size", "3", "--quiet"]) == 0
    assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()


def test_corpus_unknown_semiring_exits_2(capsys):
    assert run(["corpus", "nosuch", "--max-size", "2", "--quiet"]) == 2
    assert ("error: no semiring named 'nosuch'; builtins: "
            + ", ".join(sorted(builtin_semirings())) + ", nat<k>\n") in capsys.readouterr().err


def test_snake_reports_the_clauses_that_do_not_apply(tmp_path, capsys):
    """snake on a B@4 snake input whose f1 is not cancellative: the
    kernel-row clause does not apply, and is reported as such and skipped,
    as is every other clause whose hypotheses fail."""
    from semiexact.diagrams import snake
    from semiexact.harness import HarnessSpec, gen_snake
    from semiexact.workspace import Workspace, serialize

    d = next(d for d in gen_snake(HarnessSpec(make_boolean(), 4, seed=0, quota=40))
             if snake(d).cert_kernel_row is None)
    result = snake(d)
    ws = Workspace()
    ws.semirings["B"] = make_boolean()
    for a in d.parts():
        ws.modules.update({a.domain.name: a.domain, a.codomain.name: a.codomain})
    ws.morphisms.update({f"m{i}": a for i, a in enumerate(dict.fromkeys(d.parts()))})
    ws.diagrams["D"] = d
    path, report = tmp_path / "snake.sx", tmp_path / "r.txt"
    path.write_text(serialize(ws), encoding="utf-8")
    assert run(["snake", "D", str(path), "--report", str(report)]) == 0
    out, lines = capsys.readouterr().out, report.read_text(encoding="utf-8").splitlines()
    for label, cert in (("kernel-row", result.cert_kernel_row),
                        ("cokernel-row", result.cert_cokernel_row),
                        ("four-term", result.cert_four_term)):
        skipped = cert is None
        assert (f"snake.{label}.applicable|false|-|0" in lines) == skipped, label
        assert (f"  {label}: hypotheses not applicable, skipped\n" in out) == skipped, label
    assert out.endswith("verified\n")


def test_console_entry_point(src_env):
    proc = subprocess.run([sys.executable, "-m", "semiexact.cli", "--version"],
                          capture_output=True, text=True, env=src_env)
    assert proc.returncode == 0
    assert "semiexact" in proc.stdout


def test_repeated_main_calls_match_lone_calls(tmp_path, capsys, src_env):
    """main builds its parser once per process: a run of calls, each with
    its own flags, gives every call the exit code, output and report of the
    same call alone in a fresh interpreter, and no flag of one call carries
    into the next."""
    bad = tmp_path / "bad.sx"
    bad.write_text("semiring S size=2\n  add: 0,0; 1,1\n  mul: 0,0; 0,1\nend\n")
    calls = [["validate", str(bad)],
             ["corpus", "B", "--max-size", "2", "--corpus", str(tmp_path / "c.sx"), "--quiet"],
             ["search", "cancellative-epi-not-surjective", "nat3", "--max-size", "2"]]
    seen = []
    for i, args in enumerate(calls):
        report = tmp_path / f"r{i}.txt"
        code = run(args + ["--report", str(report)])
        seen.append((code, capsys.readouterr().out, report.read_text(encoding="utf-8")))
    assert [code for code, _, _ in seen] == [2, 0, 0]
    assert seen[1][1] == "" and seen[2][1].startswith("search ")  # --quiet stayed put
    reports = sorted(tmp_path.glob("r*.txt"))
    assert run(calls[2] + ["--quiet"]) == 0  # no --report: nothing rewritten
    assert capsys.readouterr().out == ""
    assert sorted(tmp_path.glob("r*.txt")) == reports
    assert [r.read_text(encoding="utf-8") for r in reports] == [s[2] for s in seen]
    for i, args in enumerate(calls):
        report = tmp_path / f"lone{i}.txt"
        proc = subprocess.run([sys.executable, "-m", "semiexact.cli", *args,
                               "--report", str(report)],
                              capture_output=True, text=True, env=src_env)
        assert (proc.returncode, proc.stdout, report.read_text(encoding="utf-8")) == seen[i]


@pytest.mark.parametrize("args", [
    ["validate", DEMO, "--max-size", "3"], ["classify", "f", DEMO, "--seed", "1"],
    ["exactness", "s", DEMO, "--corpus", "c.sx"], ["lemma", "short.1", "D", "--seed", "1"],
    ["snake", "D", "--max-size", "3"], ["search", "mono-not-injective", "B", "--corpus", "c.sx"],
])
def test_universe_flags_only_where_read(args, capsys):
    """--max-size and --seed belong to search and corpus, --corpus to corpus
    alone: any other command refuses them as argparse does, with exit 2."""
    with pytest.raises(SystemExit) as exc:
        run(args + ["--quiet"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {args[-2]} {args[-1]}" in capsys.readouterr().err


@pytest.mark.parametrize("args, missing", [
    (["corpus"], "semiring"), (["classify"], "name"), (["exactness"], "name"),
    (["lemma"], "name, diagram"), (["lemma", "short.1"], "diagram"), (["snake"], "diagram"),
])
def test_usage_error_names_only_what_is_required(args, missing, capsys):
    """A command missing a positional names that one alone: the workspace
    files are optional (corpus runs with none), so they are never named."""
    with pytest.raises(SystemExit) as exc:
        run(args)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.rstrip().endswith(f"error: the following arguments are required: {missing}")


@pytest.mark.parametrize("name", ["nat0", "nat7", "nat10", "nat2530"])
def test_nat_k_out_of_range_exits_2_before_building(name, monkeypatch, capsys):
    """nat<k> past 1 <= k <= 6 is refused before monoid_semiring(k) or any
    universe is built."""
    def unreachable(*args):
        raise AssertionError("built a semiring or universe for a refused nat<k>")
    monkeypatch.setattr("semiexact.cli.monoid_semiring", unreachable)
    monkeypatch.setattr("semiexact.cli.enumerate_semimodules", unreachable)
    monkeypatch.setattr("semiexact.catalog.search_counterexample", unreachable)
    for args in (["corpus", name], ["search", "mono-not-injective", name]):
        assert run(args + ["--max-size", "5", "--quiet"]) == 2
        assert f"error: semiring {name!r}: nat<k> needs 1 <= k <= 6" in \
            capsys.readouterr().err


@pytest.mark.parametrize("size", [7, 8, 100])
def test_max_size_past_bound_exits_2_before_building(size, monkeypatch, capsys):
    """search and corpus refuse --max-size past MAX_SIZE = 6 before a
    semiring or universe is built: order 7 takes minutes for its monoid
    tables alone."""
    def unreachable(*args):
        raise AssertionError("built a semiring or universe past MAX_SIZE")
    monkeypatch.setattr("semiexact.cli.monoid_semiring", unreachable)
    monkeypatch.setattr("semiexact.cli.enumerate_semimodules", unreachable)
    monkeypatch.setattr("semiexact.catalog.search_counterexample", unreachable)
    for semiring in ("B", "nat3"):
        for args in (["corpus", semiring], ["search", "mono-not-injective", semiring]):
            assert run(args + ["--max-size", str(size), "--quiet"]) == 2
            assert (f"error: --max-size {size}: search and corpus need --max-size <= 6"
                    in capsys.readouterr().err)


def test_corpus_nat5_at_order_5(tmp_path):
    """nat5, resolved to monoid_semiring(5), acts on every commutative monoid
    of order <= 5: 1 + 2 + 5 + 19 + 78 = 105 modules."""
    out, report = tmp_path / "nat5.sx", tmp_path / "r.txt"
    assert run(["corpus", "nat5", "--max-size", "5", "--corpus", str(out),
                "--report", str(report), "--quiet"]) == 0
    from semiexact.workspace import parse_files
    ws = parse_files([out])
    assert len(ws.modules) == 105
    assert sorted(m.size for m in ws.modules.values()) == \
        [1] + [2] * 2 + [3] * 5 + [4] * 19 + [5] * 78
    assert "corpus.modules|ok|105|0" in report.read_text(encoding="utf-8")
