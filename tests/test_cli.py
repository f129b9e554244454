import json

import pytest

from kacoh.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_labelings_a1(capsys):
    code, out, _ = run(capsys, "labelings", "--spec", "ad:A1", "--n", "2")
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert len(lines) == 3


def test_h1_e7_worked_example(capsys):
    code, out, _ = run(capsys, "h1", "--spec", "sc:E7", "--q", "000/00/002")
    assert code == 0
    body = [l for l in out.splitlines() if l.startswith("class")]
    assert len(body) == 4
    assert any("neutral" in l for l in body)
    for rep in ("000/00/002", "200/00/000", "010/00/000", "000/00/010"):
        assert rep in out


def test_preset_flag_alias(capsys):
    code, out, _ = run(capsys, "h1", "--preset", "sc:E7", "--q", "000/00/002")
    assert code == 0
    assert len([l for l in out.splitlines() if l.startswith("class")]) == 4
    with pytest.raises(SystemExit):  # --spec and --preset are exclusive
        main(["h1", "--spec", "sc:E7", "--preset", "sc:E7", "--q", "000/00/002"])
    capsys.readouterr()


def test_h1_halfspin_d12(capsys):
    q = "20/" + "0" * 9 + "/00"
    code, out, _ = run(capsys, "h1", "--spec", "halfspin:D12", "--q", q)
    assert code == 0
    assert len([l for l in out.splitlines() if l.startswith("class")]) == 7


def test_h1_json_round_trip_q(capsys):
    code, out, _ = run(
        capsys, "labelings", "--spec", "sc:E7", "--n", "2", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 6
    # Machine output is valid --q input, unchanged.
    flat = doc["labelings"][0]["flat"]
    code, out2, _ = run(capsys, "h1", "--spec", "sc:E7", "--q", flat)
    assert code == 0


def test_adjoint_h1(capsys):
    code, out, _ = run(capsys, "adjoint-h1", "--types", "E7")
    assert code == 0
    assert len([l for l in out.splitlines() if l.startswith("class")]) == 4
    code, out, _ = run(capsys, "adjoint-h1", "--spec", "sc:E7")
    assert code == 0
    assert len([l for l in out.splitlines() if l.startswith("class")]) == 4


def test_adjoint_h1_same_count_for_any_q(capsys):
    counts = set()
    for q in ("000/00/002", "000/01/000", "100/00/001"):
        code, out, _ = run(capsys, "h1", "--spec", "ad:E7", "--q", q)
        assert code == 0
        counts.add(len([l for l in out.splitlines() if l.startswith("class")]))
    assert counts == {4}


def test_roots(capsys):
    code, out, _ = run(
        capsys, "roots", "--spec", "sc:A1", "--z", "trivial", "--n", "2"
    )
    assert code == 0
    assert len([l for l in out.splitlines() if l.startswith("class")]) == 2
    code, out, _ = run(capsys, "roots", "--spec", "sc:A1", "--z", "1", "--n", "2")
    assert code == 0
    assert "1/4" in out
    code, out, _ = run(capsys, "roots", "--spec", "sc:A1", "--z", "1/2", "--n", "2")
    assert code == 0


def test_roots_z_values_reduced_mod_1(capsys):
    # z values are classes in Q/Z: -1 is the trivial value and 3/2 is 1/2.
    for given, canonical in (("-1", "0/1"), ("3/2", "1/2")):
        code, out, _ = run(capsys, "roots", "--spec", "sc:A1", f"--z={given}", "--n", "2")
        assert code == 0
        _, expected, _ = run(capsys, "roots", "--spec", "sc:A1", "--z", canonical, "--n", "2")
        assert out == expected and "0 classes" not in out


def test_forms(capsys):
    code, out, _ = run(capsys, "forms", "--types", "E7")
    assert code == 0
    assert len([l for l in out.splitlines() if l.startswith("form")]) == 4
    code, out, _ = run(capsys, "forms", "--types", "G2", "--format", "json")
    assert code == 0
    assert json.loads(out)["count"] == 2


def test_oracle_check(capsys):
    code, out, _ = run(capsys, "oracle-check", "--spec", "halfspin:D6")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("z=")]
    assert len(lines) == 6  # two central elements, n in {1,2,3}
    assert all(l.endswith("ok") for l in lines)


def test_exit_codes(capsys, monkeypatch, tmp_path):
    code, _, err = run(capsys, "h1", "--spec", "sc:Z9", "--q", "0")
    assert code == 3 and "error" in err
    code, out, err = run(capsys, "roots", "--spec", "sc:A1", "--z", "1/0", "--n", "2")
    assert code == 3 and out == "" and err.count("\n") == 1 and "1/0" in err
    bad_spec = tmp_path / "bad.json"
    bad_spec.write_text(json.dumps({"components": [7]}))
    code, out, err = run(capsys, "roots", "--spec", str(bad_spec), "--z", "0", "--n", "2")
    assert code == 3 and out == "" and err.count("\n") == 1 and "components" in err
    code, _, err = run(capsys, "h1", "--spec", "sc:E7", "--q", "000/00/001")
    assert code == 4
    code, _, err = run(capsys, "oracle-check", "--spec", "sc:A8")
    assert code == 5
    code, out, err = run(capsys, "oracle-check", "--spec", "sc:A1", "--n-list", "x")
    assert code == 3 and out == "" and err.count("\n") == 1 and "--n-list" in err
    for name in ("KACOH_ORACLE_MAX_RANK", "KACOH_ORACLE_MAX_N"):
        with monkeypatch.context() as m:
            m.setenv(name, "abc")
            code, out, err = run(capsys, "oracle-check", "--spec", "sc:A1")
        assert code == 5 and out == "" and err.count("\n") == 1 and name in err
    with pytest.raises(SystemExit) as exc:
        main(["h1", "--spec", "sc:E7"])  # missing --q: usage error
    assert exc.value.code == 2


def test_alias_warning(capsys):
    code, out, err = run(capsys, "labelings", "--spec", "ad:B2", "--n", "2")
    assert code == 0
    assert "alias" in err
    code, out, err = run(capsys, "labelings", "--spec", "ad:D3", "--n", "2")
    assert code == 0
    assert "alias" in err
    code, out, err = run(capsys, "labelings", "--spec", "ad:D4", "--n", "2")
    assert code == 0
    assert err == ""


def test_spec_file(tmp_path, capsys):
    path = tmp_path / "halfspin6.json"
    path.write_text(
        json.dumps(
            {
                "components": ["D6"],
                "generators": [["1/2", "0/1", "1/2", 0, 0, "1/2"]],
            }
        )
    )
    code, out, _ = run(capsys, "h1", "--spec", str(path), "--q", "20/000/00")
    assert code == 0
    assert len([l for l in out.splitlines() if l.startswith("class")]) == 5


def test_determinism(capsys):
    outputs = set()
    for _ in range(3):
        code, out, err = run(
            capsys, "h1", "--spec", "sc:E7", "--q", "000/00/002", "--format", "json"
        )
        assert code == 0 and err == ""
        outputs.add(out)
    assert len(outputs) == 1
