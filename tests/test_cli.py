import contextlib
import io
import json
import os
import tempfile
import time

import pytest
from hypothesis import given, settings, strategies as st

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
    bad_spec.write_text(json.dumps({"components": ["A1"], "generators": [["1/0"]]}))
    code, out, err = run(capsys, "roots", "--spec", str(bad_spec), "--z", "0", "--n", "2")
    assert code == 3 and out == "" and err.count("\n") == 1 and "1/0" in err
    # Decimal exponents are refused before any power of ten is built.
    bad_spec.write_text(json.dumps({"components": ["A1"], "generators": [["1e-999999999"]]}))
    for spec_arg, z in (("sc:A1", "1e-999999999"), (str(bad_spec), "0")):
        started = time.perf_counter()
        code, out, err = run(capsys, "roots", "--spec", spec_arg, "--z", z, "--n", "2")
        assert time.perf_counter() - started < 0.5
        assert code == 3 and out == "" and err.count("\n") == 1 and "1e-999999999" in err
    for z in ("0.5", "1/2,x", "9" * 5000):
        code, out, err = run(capsys, "roots", "--spec", "sc:A1", "--z", z, "--n", "2")
        assert code == 3 and out == "" and err.count("\n") == 1
    # Ranks are ASCII digits: "³" and "٣" pass str.isdigit() (int() reads
    # the second as 3), and a rank longer than int() converts is no rank.
    for argv in (
        ("adjoint-h1", "--spec", "sc:A³"),
        ("adjoint-h1", "--spec", "sc:A٣"),
        ("adjoint-h1", "--types", "A²xA1"),
        ("adjoint-h1", "--spec", "sc:A" + "9" * 5000),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "" and err.count("\n") == 1 and "simple type" in err
    bad_spec.write_text(json.dumps({"components": ["A²"]}))
    code, out, err = run(capsys, "roots", "--spec", str(bad_spec), "--z", "0", "--n", "2")
    assert code == 3 and out == "" and err.count("\n") == 1 and "simple type" in err
    binary_spec = tmp_path / "binary.json"
    binary_spec.write_bytes(b"\xff\xfe\xfa")
    for path in (str(binary_spec), "spec\x00.json"):
        code, out, err = run(capsys, "roots", "--spec", path, "--z", "0", "--n", "2")
        assert code == 3 and out == "" and err.count("\n") == 1 and "cannot read" in err
    code, _, err = run(capsys, "h1", "--spec", "sc:E7", "--q", "000/00/001")
    assert code == 4
    # Labels are ASCII digits: int() fails on "²" and reads "٢" as 2.
    for q in ("²0", "٢,0", "２0", "1,１"):
        code, out, err = run(capsys, "h1", "--spec", "sc:A1", "--q", q)
        assert code == 4 and out == "" and err.count("\n") == 1, q
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


FAMILIES = "ABCDEFGZ"


def mostly(usual, other):
    """``usual`` about three draws in four, else ``other``."""
    return st.sampled_from((usual, usual, usual, other)).flatmap(lambda s: s)


def _type_token(max_rank):
    # Non-ASCII digits pass str.isdigit() but are no rank.
    rank = mostly(
        st.integers(min_value=0, max_value=max_rank).map(str),
        st.sampled_from(("³", "٣", "１", "1²", "۴")),
    )
    return st.builds("{}{}".format, st.sampled_from(FAMILIES), rank)


# One type of rank up to 9, or a product of two small ones, or junk.
types_text = mostly(
    st.one_of(_type_token(9), st.builds("x".join, st.lists(_type_token(4), min_size=2, max_size=2))),
    st.text(max_size=8),
)
preset_text = mostly(
    st.builds("{}:{}".format, st.sampled_from(("sc", "ad", "halfspin", "so", "xx")), types_text),
    st.text(max_size=10),
)
rational = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.sampled_from(("1/2", "1/3", "2/3", "1/4", "3/4", "0/1", "1/0")),
    st.text(max_size=5),
)
spec_document = mostly(
    st.fixed_dictionaries(
        {"components": st.lists(mostly(_type_token(4), st.text(max_size=4)), max_size=2)},
        optional={"generators": st.lists(st.lists(rational, max_size=8), max_size=2)},
    ),
    st.one_of(
        st.fixed_dictionaries({"components": st.integers() | st.text(max_size=4)}),
        st.lists(st.integers(), max_size=2),
    ),
)
free_text = st.text(max_size=12)
# "²", "٢" and "１" pass str.isdigit() but are no label.
labeling_text = st.one_of(st.text(alphabet="0123456789/,;²٢１", max_size=12), free_text)
VALUES = {
    "--n": mostly(st.integers(min_value=-2, max_value=4).map(str), free_text),
    "--z": mostly(st.sampled_from(("trivial", "0", "1", "2", "1/2", "all")), free_text),
    "--q": labeling_text,
    "--match-q": labeling_text,
    "--types": types_text,
    "--n-list": mostly(st.sampled_from(("1", "1,2", "2,3", "0", "-1")), free_text),
    "--format": mostly(st.sampled_from(("text", "json")), st.just("xml")),
}
VERB_OPTIONS = {
    "labelings": ("--n", "--z", "--match-q"),
    "h1": ("--q",),
    "adjoint-h1": ("--types",),
    "roots": ("--z", "--n"),
    "forms": ("--types",),
    "oracle-check": ("--z", "--n-list"),
}
often = st.integers(min_value=0, max_value=9).map(bool)  # True 9 times in 10


def _exit_code(argv) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_random_argv_ends_in_a_documented_exit_code(data):
    # Anything but success, usage, spec, labeling or budget errors is a bug:
    # a traceback fails the test and so does exit 6 (internal check).
    verb = data.draw(st.sampled_from(sorted(VERB_OPTIONS) + ["nonsense"]), label="verb")
    argv = [verb]
    with tempfile.TemporaryDirectory() as tmp:
        if data.draw(often):
            if data.draw(st.booleans()):
                spec = data.draw(preset_text, label="preset")
            else:
                spec = os.path.join(tmp, "spec.json")
                with open(spec, "w", encoding="utf-8") as fh:
                    json.dump(data.draw(spec_document, label="document"), fh)
            argv += [data.draw(st.sampled_from(("--spec", "--preset"))), spec]
        flags = VERB_OPTIONS.get(verb, ()) + ("--format",)
        if not data.draw(often):
            flags += (data.draw(st.sampled_from(sorted(VALUES))),)
        for flag in flags:
            if data.draw(often):
                argv += [flag, data.draw(VALUES[flag], label=flag)]
        code = _exit_code(argv)
    assert code in (0, 2, 3, 4, 5), (argv, code)
