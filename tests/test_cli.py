"""Problem-file driver: parsing and validation, task execution with
short-circuiting, report rendering, determinism, and preset pipelines."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from twistres.algebra import ITERATED_ORE
from twistres.cli import (
    ConfigError, config_from_data, main, parse_config, preset_names, run,
)

WEYL_TEXT = """\
field: 0
seed: 3
cutoff: 4
algebras:
  A: {kind: polynomial, generators: [y]}
  B: {kind: polynomial, generators: [x]}
  W:
    kind: twisted-product
    left: A
    right: B
    twist: {kind: ore, delta: {y: "-1"}}
  Wore:
    kind: iterated-ore
    generators: [x, y]
    delta: {y: {x: "-1"}}
resolutions:
  PW: {algebra: Wore, family: ore-koszul, cutoff: 5}
tasks:
  - check-twist
  - verify-resolution
  - {task: twisted-product, algebra: W, cutoff: 4}
  - {task: hochschild, resolution: PW, cutoff: 6}
"""


# ---------------------------------------------------------------------------
# parsing and validation


def test_parse_weyl_problem_file():
    config = parse_config(WEYL_TEXT)
    assert config.characteristic == 0
    assert config.seed == 3
    assert config.algebras["Wore"].variant == ITERATED_ORE
    assert config.algebras["Wore"].delta == {(1, 0): {(0, 0): -1}}
    assert config.products["W"].twist.kind == "ore"
    assert config.resolutions["PW"].complex.n_max == 2
    assert [t["task"] for t in config.tasks] == [
        "check-twist", "verify-resolution", "twisted-product", "hochschild"]


def test_empty_task_list_is_a_valid_config():
    config = parse_config("field: 0\ntasks: []\n")
    report = run(config)
    assert report.records == []
    assert report.exit_code == 0


def test_rejects_composite_characteristic_with_position():
    with pytest.raises(ConfigError) as info:
        parse_config("field: 6\ntasks: []\n")
    assert info.value.line == 1
    assert "prime" in str(info.value)


def test_rejects_unknown_generator_in_delta_string():
    text = ("field: 0\nalgebras:\n  Q:\n    kind: iterated-ore\n"
            "    generators: [a, b]\n    delta: {b: {a: \"c\"}}\n")
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert "unknown generator" in str(info.value)
    assert info.value.line == 6


def test_rejects_delta_image_involving_later_generator():
    text = ("field: 0\nalgebras:\n  Q:\n    kind: iterated-ore\n"
            "    generators: [a, b, c]\n    delta: {b: {a: \"c\"}}\n")
    with pytest.raises(ConfigError, match="lower generators"):
        parse_config(text)


INCONSISTENT_DELTA = ("field: 0\nalgebras:\n  T:\n    kind: iterated-ore\n"
                      "    generators: [a, b, c]\n"
                      "    delta: {b: {a: \"a\"}, c: {a: \"b\"}}\n"
                      "resolutions:\n"
                      "  PT: {algebra: T, family: ore-koszul, cutoff: 4}\n"
                      "tasks: [verify-resolution]\n")


def test_rejects_delta_table_that_breaks_pbw(tmp_path, capsys):
    # (c*b)*a and c*(b*a) differ by b: the normal monomials are no basis,
    # and an accepted table would report a negative homology dimension
    with pytest.raises(ConfigError) as info:
        parse_config(INCONSISTENT_DELTA)
    assert info.value.line == 6
    assert "(c*b)*a" in str(info.value)
    path = tmp_path / "inconsistent.yaml"
    path.write_text(INCONSISTENT_DELTA, encoding="utf-8")
    assert main(["--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert "delta" in err and "Traceback" not in err


def test_rejects_yaml_syntax_error_with_position():
    with pytest.raises(ConfigError) as info:
        parse_config("tasks:\n  - [unclosed\n")
    assert info.value.line == 3


def test_rejects_unknown_names():
    with pytest.raises(ConfigError, match="unknown task"):
        parse_config("tasks: [frobnicate]\n")
    with pytest.raises(ConfigError, match="unknown preset"):
        parse_config("tasks: ['preset:nope']\n")
    with pytest.raises(ConfigError, match="twisted-product block"):
        parse_config("tasks: [check-twist]\n")
    with pytest.raises(ConfigError, match="declared request"):
        parse_config("tasks: [{task: hochschild, resolution: ghost}]\n")
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config("tasks: [{task: tor-ext}]\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("field: 0\nextra: 1\ntasks: []\n")


def test_rejects_bad_references_in_blocks():
    with pytest.raises(ConfigError, match="previously declared"):
        parse_config("algebras:\n  P:\n    kind: twisted-product\n"
                     "    left: A\n    right: B\n    twist: {kind: flip}\n")
    with pytest.raises(ConfigError, match="cutoff must be >= 1"):
        parse_config("cutoff: 0\ntasks: []\n")


def test_rejects_undefined_coefficients_with_position():
    poly = "  A: {kind: polynomial, generators: [y]}\n" \
           "  B: {kind: polynomial, generators: [x]}\n"
    cases = [
        ("field: 0\nalgebras:\n  Q:\n    kind: iterated-ore\n"
         "    generators: [x, y]\n    delta: {y: {x: \"1/0\"}}\n", 6),
        ("field: 3\nalgebras:\n  Q:\n    kind: iterated-ore\n"
         "    generators: [x, y]\n    delta: {y: {x: \"1/3\"}}\n", 6),
        ("field: 0\nalgebras:\n" + poly + "  W:\n    kind: twisted-product\n"
         "    left: A\n    right: B\n"
         "    twist: {kind: ore, delta: {y: \"1/0\"}}\n", 9),
    ]
    for text, line in cases:
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert info.value.line == line


# ---------------------------------------------------------------------------
# execution


def test_run_weyl_problem_file_passes():
    report = run(parse_config(WEYL_TEXT))
    assert [rec.status for rec in report.records] == ["pass"] * 4
    assert report.overall == "pass"
    assert report.exit_code == 0
    hh = report.records[-1]
    assert [(row["n"], row["dim"]) for row in hh.dims] == [
        (0, 1), (1, 0), (2, 0)]
    assert all(row["stable"] for row in hh.dims)


@pytest.mark.parametrize("cutoff", [3, 4, 6])
def test_twisted_product_checks_keep_their_cutoffs(cutoff):
    """Künneth stage 0 runs at min(cutoff, 4) and exactness at the task's
    cutoff, whether or not the two share one truncation."""
    text = WEYL_TEXT.replace("{task: twisted-product, algebra: W, cutoff: 4}",
                             "{task: twisted-product, algebra: W, cutoff: %d}"
                             % cutoff)
    product = run(parse_config(text)).records[2]
    assert product.status == "pass"
    assert "KunnethReport W cutoff=%d " % min(cutoff, 4) in product.detail
    assert "exactness(W, N=%d, " % cutoff in product.detail


def test_failing_twist_short_circuits_the_product():
    config = parse_config("""\
field: 0
algebras:
  A: {kind: polynomial, generators: [y]}
  B: {kind: polynomial, generators: [x]}
  Wbad:
    kind: twisted-product
    left: A
    right: B
    twist:
      kind: custom
      base: flip
      table: {"x|y": "y*x + 1"}
tasks:
  - check-twist
  - {task: twisted-product, algebra: Wbad}
""")
    report = run(config)
    assert report.records[0].status == "fail"
    assert report.records[0].violations
    assert report.records[1].status == "skipped"
    assert "twist:Wbad" in report.records[1].detail
    assert report.exit_code == 1


def test_run_errors_become_failed_records_not_crashes():
    config = parse_config("""\
field: 0
algebras:
  G: {kind: cyclic-group, order: 4}
resolutions:
  PG: {algebra: G, family: cyclic-periodic, n_max: 3}
tasks:
  - {task: tor-ext, resolution: PG}
""")
    report = run(config)
    assert report.records[0].status == "fail"
    assert "Error" in report.records[0].detail
    assert report.exit_code == 1


def test_unstable_dimensions_flagged_but_exit_zero():
    config = parse_config("""\
field: 0
algebras:
  S: {kind: polynomial, generators: [x, y]}
resolutions:
  K: {algebra: S, family: poly-koszul}
tasks:
  - {task: hochschild, resolution: K, cutoff: 4}
""")
    report = run(config)
    assert report.records[0].status == "unstable"
    assert report.overall == "unstable"
    assert report.exit_code == 0


def test_report_renderings_agree_on_content():
    report = run(parse_config(WEYL_TEXT))
    data = json.loads(report.render_json())
    text = report.render_text()
    assert data["overall"] == "pass"
    assert data["exit_code"] == 0
    assert data["config"]["seed"] == 3
    for rec in data["records"]:
        assert "%s[%s]" % (rec["task"], rec["target"]) in text
        assert rec["status"] in text
    assert len(data["records"]) == 4


def test_json_rendering_is_deterministic_for_same_seed():
    first = run(parse_config(WEYL_TEXT)).render_json()
    second = run(parse_config(WEYL_TEXT)).render_json()
    assert first == second


# ---------------------------------------------------------------------------
# presets


def test_every_preset_config_validates():
    for name in preset_names():
        config = config_from_data({"tasks": ["preset:%s" % name]})
        assert config.tasks == [{"task": "preset:%s" % name}]


def test_cyclic_preset_dimension_table():
    report = run(config_from_data({"tasks": ["preset:cyclic-p"]}))
    assert report.exit_code == 0
    hh = report.records[1]
    assert hh.task == "preset:cyclic-p/hochschild"
    assert [(row["n"], row["dim"]) for row in hh.dims
            if row["degree"] is None] == [(n, 3) for n in range(5)]
    ground = report.records[2]
    assert [(row["n"], row["dim"]) for row in ground.dims
            if row["degree"] is None] == [(n, 1) for n in range(5)]


def test_heisenberg_preset_collapse_dimensions():
    report = run(config_from_data({"tasks": ["preset:heisenberg"]}))
    assert report.exit_code == 0
    tor = report.records[-1]
    assert [row["dim"] for row in tor.dims] == [1, 2, 2, 1]
    assert "ext=[1, 2, 2, 1]" in tor.detail


def test_solvable_preset_runs_both_collapse_routes():
    report = run(config_from_data({"tasks": ["preset:ue-solvable-2dim"]}))
    assert report.exit_code == 0
    dims = [[row["dim"] for row in rec.dims]
            for rec in report.records if rec.task.endswith("tor-ext")]
    assert dims == [[1, 1, 0], [1, 1, 0]]


def test_sl2_preset_fails_with_scope_message():
    report = run(config_from_data({"tasks": ["preset:lie-sl2-excluded"]}))
    assert report.exit_code == 1
    assert report.records[0].status == "fail"
    assert "out of scope" in report.records[0].detail


# ---------------------------------------------------------------------------
# command line


def test_main_runs_a_problem_file(tmp_path, capsys):
    path = tmp_path / "weyl.yaml"
    path.write_text(WEYL_TEXT, encoding="utf-8")
    code = main(["--input", str(path), "--format", "json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["overall"] == "pass"


def test_main_task_flag_overrides_file_tasks(tmp_path, capsys):
    path = tmp_path / "weyl.yaml"
    path.write_text(WEYL_TEXT, encoding="utf-8")
    code = main(["--input", str(path), "--task", "check-twist",
                 "--format", "json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert [rec["task"] for rec in data["records"]] == ["check-twist"]


def test_main_reports_parse_errors_on_stderr(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("field: 6\ntasks: []\n", encoding="utf-8")
    assert main(["--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "prime" in err


@pytest.mark.parametrize("text", ["- a\n- b\n", "42\n"])
def test_main_rejects_a_non_mapping_file_under_overrides(tmp_path, capsys,
                                                        text):
    path = tmp_path / "list.yaml"
    path.write_text(text, encoding="utf-8")
    argv = ["--input", str(path), "--task", "preset:cyclic-p", "--seed", "1"]
    assert main(argv) == 2
    assert "line 1, column 1: the problem file must be a mapping" in \
        capsys.readouterr().err


def test_unknown_yaml_tag_is_a_config_error_with_its_position(tmp_path,
                                                             capsys):
    text = "cutoff: !foo 3\n"
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert (info.value.line, info.value.column) == (1, 9)
    path = tmp_path / "tag.yaml"
    path.write_text(text, encoding="utf-8")
    assert main(["--input", str(path)]) == 2
    assert "line 1, column 9: could not determine a constructor" in \
        capsys.readouterr().err


ALIAS = "this node is reached again through an alias"


@pytest.mark.parametrize("text, position, message", [
    ("a: &x [*x]\n", (1, 4), ALIAS),
    ("a: &x [1]\nb: *x\nc: *x\n", (1, 4), ALIAS),
    ("&k cutoff: 1\n*k : 2\n", (1, 1), ALIAS),
    ("? [a]\n: 1\n", (1, 3), "mapping keys must be scalars"),
    ("cutoff: !!float abc\n", (1, 9), "cannot read 'abc' as"),
    ("cutoff: !!bool maybe\n", (1, 9), "cannot read 'maybe' as"),
    ("cutoff: !!timestamp 2020-13-45\n", (1, 9), "cannot read '2020-13-45'"),
    ("cutoff: 3\nb: x\x01\n", (2, 5), "unacceptable character #x0001"),
], ids=["self-alias", "alias-used-twice", "aliased-key", "non-scalar-key",
        "bad-float", "bad-bool", "bad-timestamp", "unprintable"])
def test_malformed_yaml_exits_2_with_its_position(tmp_path, capsys, text,
                                                  position, message):
    with pytest.raises(ConfigError, match=message) as info:
        parse_config(text)
    assert (info.value.line, info.value.column) == position
    path = tmp_path / "bad.yaml"
    path.write_text(text, encoding="utf-8")
    assert main(["--input", str(path)]) == 2
    assert "line %d, column %d: %s" % (position + (message,)) in \
        capsys.readouterr().err


def test_deeply_nested_yaml_is_a_config_error():
    with pytest.raises(ConfigError, match="nests too deeply"):
        parse_config("a: " + "[" * 3000 + "]" * 3000 + "\n")


def test_main_rejects_a_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.yaml"
    path.write_bytes(b"cutoff: 3\n# caf\xe9 \xff\n")
    assert main(["--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("twistres: %s: " % path)
    assert "can't decode byte" in err


def test_yaml_is_imported_only_to_read_a_problem_file():
    # a fresh interpreter: this test process has long since imported yaml
    weyl = Path(__file__).resolve().parents[1] / "demos" / "weyl.yaml"
    script = "\n".join([
        "import contextlib, hashlib, io, sys",
        "from twistres.cli import main",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    main(['--task', 'preset:cyclic-p', '--format', 'json'])",
        "print('yaml' in sys.modules)",
        "out = io.StringIO()",
        "with contextlib.redirect_stdout(out):",
        "    main(['--input', sys.argv[1], '--format', 'json'])",
        "print('yaml' in sys.modules)",
        "print(hashlib.sha256(out.getvalue().encode('utf-8')).hexdigest())",
    ])
    proc = subprocess.run([sys.executable, "-c", script, str(weyl)],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == [
        "False", "True",
        "36bc132bc1d0ada649890f1e17ac4212033dfe9c57ffc868881a10a27ced3d93"]


@pytest.mark.parametrize("argv, flag", [
    (["--cutoff", "0"], "--cutoff"),
    (["--task", "bogus-task"], "--task"),
    (["--task", "preset:nope"], "--task"),
])
def test_main_blames_an_invalid_override_on_its_flag(tmp_path, capsys, argv,
                                                     flag):
    path = tmp_path / "c.yaml"
    path.write_text("cutoff: 3\ntasks: [check-twist]\n", encoding="utf-8")
    assert main(["--input", str(path)] + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("twistres: %s: " % flag)
    assert "line" not in err and "c.yaml" not in err


def test_main_keeps_file_positions_of_values_not_overridden(tmp_path,
                                                            capsys):
    path = tmp_path / "c.yaml"
    path.write_text("cutoff: 0\n", encoding="utf-8")
    assert main(["--input", str(path), "--seed", "5",
                 "--task", "preset:cyclic-p"]) == 2
    assert "c.yaml: line 1, column 9: cutoff must be >= 1" in \
        capsys.readouterr().err


@pytest.mark.parametrize("name", ["bogus", "preset:nope"])
def test_main_marks_an_unknown_bare_task_name(tmp_path, capsys, name):
    path = tmp_path / "c.yaml"
    path.write_text("tasks:\n  - %s\n" % name, encoding="utf-8")
    assert main(["--input", str(path)]) == 2
    assert "c.yaml: line 2, column 5: unknown" in capsys.readouterr().err


def test_main_requires_input_or_task(capsys):
    with pytest.raises(SystemExit):
        main([])


def test_main_missing_file(capsys):
    assert main(["--input", "/nonexistent/problem.yaml"]) == 2


def test_subprocess_runs_are_byte_identical():
    cmd = [sys.executable, "-m", "twistres.cli", "--task", "preset:cyclic-p",
           "--seed", "11", "--format", "json"]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert json.loads(first.stdout)["exit_code"] == 0


# the eight presets in the order of the criterion-9 command; the same seed
# must give the same report bytes, whatever the arithmetic behind them
EIGHT_PRESETS = ("weyl", "weyl-2", "skew-p2", "skew-p3", "ue-solvable-2dim",
                 "heisenberg", "cyclic-p", "lie-sl2-excluded")


def test_eight_preset_report_bytes_are_pinned(capsys):
    argv = ["--seed", "11", "--format", "json"]
    for name in EIGHT_PRESETS:
        argv += ["--task", "preset:%s" % name]
    assert main(argv) == 1  # lie-sl2-excluded fails by design
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8"))
    assert digest.hexdigest() == (
        "f5741135f3e4b386bf12001848d54d651741a29530ff652d583cde165088ec68")
