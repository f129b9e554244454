import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings, strategies as st

import kacoh
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


def test_one_spelling_per_input(capsys):
    # A spec is given by --spec alone, and adjoint-h1 reads --types alone:
    # it takes the components only, so a lattice would be dropped unread.
    for argv in (
        ["h1", "--preset", "sc:E7", "--q", "000/00/002"],
        ["h1", "--spec", "sc:E7", "--preset", "sc:E7", "--q", "000/00/002"],
        ["adjoint-h1", "--spec", "sc:E7"],
        ["adjoint-h1", "--types", "E7", "--spec", "sc:E7"],
        ["adjoint-h1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and "usage:" in err, argv


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
    code, out, _ = run(capsys, "adjoint-h1", "--types", "E7", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["classes"]) == 4


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
    # JSON booleans are no coefficients, though Python counts them as ints.
    bad_spec.write_text(json.dumps({"components": ["A1"], "generators": [[True]]}))
    code, out, err = run(capsys, "roots", "--spec", str(bad_spec), "--z", "0", "--n", "2")
    assert code == 3 and out == ""
    assert err == "error: bad rational True (use an integer or 'num/den')\n"
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
        ("labelings", "--spec", "sc:A³", "--n", "2"),
        ("labelings", "--spec", "sc:A٣", "--n", "2"),
        ("adjoint-h1", "--types", "A²xA1"),
        ("labelings", "--spec", "sc:A" + "9" * 5000, "--n", "2"),
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
    # A twist to match is of the level that --n asks for.
    for n, q, level in (("3", "0,1,0,1", 2), ("2", "0,0,0,0", 0)):
        code, out, err = run(capsys, "labelings", "--spec", "sc:A3", "--n", n, "--match-q", q)
        assert code == 4 and out == "" and err.count("\n") == 1 and f"level {level}" in err
    # Labels are ASCII digits: int() fails on "²" and reads "٢" as 2.
    for q in ("²0", "٢,0", "２0", "1,１"):
        code, out, err = run(capsys, "h1", "--spec", "sc:A1", "--q", q)
        assert code == 4 and out == "" and err.count("\n") == 1, q
    # A value tuple that is no homomorphism on X/Q, and a non-ASCII index.
    code, out, err = run(capsys, "roots", "--spec", "sc:E7", "--z", "1/3", "--n", "2")
    assert code == 3 and out == "" and err == "error: values (1/3) do not define a homomorphism on X/Q\n"
    code, out, err = run(capsys, "roots", "--spec", "sc:A3", "--z", "٢", "--n", "2")
    assert code == 3 and out == "" and err.count("\n") == 1 and "bad rational" in err
    # Levels are ASCII integers: int() reads "٢" as 2 and "1_0" as 10.
    for verb, n in (("roots", "٢"), ("roots", "1_0"), ("labelings", "٢")):
        z = ("--z", "0") if verb == "roots" else ()
        with pytest.raises(SystemExit) as exc:
            main([verb, "--spec", "sc:A3", *z, "--n", n])
        assert exc.value.code == 2
        assert f"argument --n: invalid int value: '{n}'" in capsys.readouterr().err
    for n in ("-1", "0"):
        code, out, err = run(capsys, "roots", "--spec", "sc:A3", "--z", "0", "--n", n)
        assert code == 4 and out == "" and err.count("\n") == 1
    code, out, err = run(capsys, "oracle-check", "--spec", "sc:A1", "--z", "trivial", "--n-list", "٢")
    assert code == 3 and out == "" and err.count("\n") == 1 and "--n-list" in err
    # The torus budget is on n**rank points: 3**8 is within the default
    # 2**16, 5**8 above it.
    code, out, err = run(capsys, "oracle-check", "--spec", "sc:A8")
    assert code == 0 and err == "" and out.count(", ok\n") == 27
    code, out, err = run(capsys, "oracle-check", "--spec", "sc:A8", "--n-list", "5")
    assert code == 5 and out == "" and err.count("\n") == 1
    assert "390625 torus points" in err and "KACOH_ORACLE_MAX_POINTS" in err
    code, out, err = run(capsys, "oracle-check", "--spec", "sc:A1", "--n-list", "x")
    assert code == 3 and out == "" and err.count("\n") == 1 and "--n-list" in err
    # Budgets are ASCII integers: int() reads "1_0" as 10 and "٣" as 3.
    name = "KACOH_ORACLE_MAX_POINTS"
    for value in ("abc", "1_0", "٣"):
        with monkeypatch.context() as m:
            m.setenv(name, value)
            code, out, err = run(capsys, "oracle-check", "--spec", "sc:A1")
        assert code == 5 and out == "" and err.count("\n") == 1 and name in err, value
    with pytest.raises(SystemExit) as exc:
        main(["h1", "--spec", "sc:E7"])  # missing --q: usage error
    assert exc.value.code == 2
    capsys.readouterr()
    # Options are spelled in full: each of these abbreviates one option of
    # its verb uniquely, and is a usage error.
    for argv in (
        ("oracle-check", "--spec", "sc:A2", "--z", "1/3", "--n", "2"),
        ("h1", "--spec", "sc:E7", "--q", "000/00/002", "--form", "json"),
        ("labelings", "--spec", "sc:A3", "--n", "2", "--match", "0,0,2,0"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == "" and err.startswith("usage: kacoh "), argv
        assert err.endswith(f"error: unrecognized arguments: {' '.join(argv[-2:])}\n"), argv


def test_oracle_check_refuses_n_above_byte_cap():
    # The budget allows 257 points, but the closure cannot take n past 256:
    # a fresh interpreter shows the refusal is one line, with no traceback.
    src = os.path.dirname(os.path.dirname(kacoh.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    code = "import sys; from kacoh.cli import main; sys.exit(main())"
    done = subprocess.run(
        [sys.executable, "-c", code, "oracle-check", "--spec", "sc:A1", "--n-list", "257"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 5 and done.stdout == ""
    assert done.stderr.count("\n") == 1 and "cap of 256" in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_reader_closing_stdout_early_ends_without_traceback(fmt):
    # About 0.4 MB of output, far more than a pipe holds, so the writer is
    # still writing when the reader closes its end after the first line.
    src = os.path.dirname(os.path.dirname(kacoh.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    code = "import sys; from kacoh.cli import main; sys.exit(main())"
    proc = subprocess.Popen(
        [sys.executable, "-c", code, "labelings", "--spec", "sc:A4", "--n", "24", "--format", fmt],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert first.startswith(b"{" if fmt == "json" else b"# 20475 labelings")
    assert err == b""


def test_labeling_verbs_refuse_a_Kn_above_the_budget(capsys, monkeypatch):
    # |K_20| of A30 is C(50, 20); it is counted, not enumerated.
    started = time.perf_counter()
    code, out, err = run(capsys, "roots", "--spec", "sc:A30", "--z", "trivial", "--n", "20")
    assert time.perf_counter() - started < 1.0
    assert (code, out) == (5, "")
    assert err == (
        "error: refusing to enumerate K_20: 47129212243960 labelings, "
        "above the budget of 1000000 (KACOH_MAX_LABELINGS)\n"
    )
    # sc:A3 has 10 labelings at n = 2: a budget of 9 refuses them on every
    # verb that enumerates, a budget of 10 answers.
    argvs = (
        ("labelings", "--spec", "sc:A3", "--n", "2"),
        ("roots", "--spec", "sc:A3", "--z", "trivial", "--n", "2"),
        ("h1", "--spec", "sc:A3", "--q", "000/2"),
        ("adjoint-h1", "--types", "A3"),
    )
    for budget, expected in (("9", 5), ("10", 0)):
        monkeypatch.setenv("KACOH_MAX_LABELINGS", budget)
        for argv in argvs:
            code, out, err = run(capsys, *argv)
            assert code == expected, (budget, argv)
            if code:
                assert out == "" and err.count("\n") == 1 and "10 labelings" in err
    for value in ("abc", "1_0", "٣"):
        monkeypatch.setenv("KACOH_MAX_LABELINGS", value)
        code, out, err = run(capsys, *argvs[0])
        assert code == 5 and out == "" and err.count("\n") == 1 and "KACOH_MAX_LABELINGS" in err


def test_roots_at_rank_200_is_unchanged(capsys):
    # The document's SHA-256, pinned: how the coweight lattice and the
    # congruence keys are built must not change a byte of it.
    code, out, _ = run(capsys, "roots", "--spec", "sc:A200", "--z", "trivial", "--n", "2", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "0c81a35d0aef0aadace726e0bc49ebf36241d66c90018f94e714d1c51f3debd2"
    )


@pytest.mark.parametrize("n", ["0", "-1"])
def test_oracle_check_refuses_nonpositive_n(capsys, n):
    code, out, err = run(capsys, "oracle-check", "--spec", "sc:A1", "--n-list", n)
    assert (code, out) == (4, "")
    assert err == f"error: n must be positive, got {n}\n"


def test_alias_warning(capsys):
    # B2 and D3 are aliases of C2 and A3, whether they come in a spec or in
    # --types; each alias is named once, in the order of the components.
    warning = "warning: {} is an alias of {}; intended for oracle cross-checks only\n"
    for argv, aliases in (
        (("labelings", "--spec", "ad:B2", "--n", "2"), [("B2", "C2")]),
        (("labelings", "--spec", "ad:D3", "--n", "2"), [("D3", "A3")]),
        (("labelings", "--spec", "ad:D4", "--n", "2"), []),
        (("forms", "--types", "B2"), [("B2", "C2")]),
        (("forms", "--types", "C2"), []),
        (("adjoint-h1", "--types", "D3"), [("D3", "A3")]),
        (("adjoint-h1", "--types", "B2xA1xD3"), [("B2", "C2"), ("D3", "A3")]),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 0 and out, argv
        assert err == "".join(warning.format(*pair) for pair in aliases), argv


def test_spec_file(tmp_path, capsys):
    doc = {"components": ["D6"], "generators": [["1/2", "0/1", "1/2", 0, 0, "1/2"]]}
    # An existing file is a spec file even when its path has a ":".
    for name in ("halfspin6.json", "a:b.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "h1", "--spec", str(path), "--q", "20/000/00")
        assert code == 0
        assert len([l for l in out.splitlines() if l.startswith("class")]) == 5
    # A path with a ":" that names no file is parsed as a preset.
    code, out, err = run(capsys, "h1", "--spec", str(tmp_path / "c:d.json"), "--q", "0")
    assert code == 3 and out == "" and err == "error: cannot parse simple type 'd.json'\n"


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
            argv += ["--spec", spec]
        flags = VERB_OPTIONS.get(verb, ()) + ("--format",)
        if not data.draw(often):
            flags += (data.draw(st.sampled_from(sorted(VALUES))),)
        for flag in flags:
            if data.draw(often):
                argv += [flag, data.draw(VALUES[flag], label=flag)]
        code = _exit_code(argv)
    assert code in (0, 2, 3, 4, 5), (argv, code)


def test_import_loads_only_the_standard_library():
    # A fresh interpreter, so that only what the import itself adds counts.
    src = os.path.dirname(os.path.dirname(kacoh.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    code = (
        "import sys; before = set(sys.modules); import kacoh, kacoh.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    added = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "kacoh.cli" in added
    tops = {name.partition(".")[0] for name in added}
    assert tops - set(sys.stdlib_module_names) == {"kacoh"}
