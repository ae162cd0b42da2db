"""CLI behavior: exit codes, reports, determinism, corpus export."""

import subprocess
import sys

from semiexact.cli import main

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


def test_console_entry_point(src_env):
    proc = subprocess.run([sys.executable, "-m", "semiexact.cli", "--version"],
                          capture_output=True, text=True, env=src_env)
    assert proc.returncode == 0
    assert "semiexact" in proc.stdout
