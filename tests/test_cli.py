import json
import os
import re

import pytest

from magnon import cli, lattice, spinwave

FLOAT_RE = re.compile(r"^-?\d\.\d{16}e[+-]\d{2,3}$")


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert "0.1.0" in capsys.readouterr().out


def test_free_energy_json_deterministic(capsys):
    argv = ["free-energy", "--d", "3", "--two-s", "4", "--beta-tilde", "2.0"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["command"] == "free-energy"
    assert doc["version"] == "0.1.0"
    assert doc["config"]["d"] == 3
    (report,) = doc["reports"]
    assert report["mode"] == "asymptotic"
    assert {"higher_order", "quadrature"} <= set(
        report["error_terms"]["components"]
    )
    # keys are emitted sorted for reproducible diffs
    assert list(doc) == sorted(doc)


def test_free_energy_box_csv(tmp_path, capsys):
    out = tmp_path / "box.csv"
    code, _, _ = run(
        capsys,
        [
            "free-energy",
            "--d",
            "1",
            "--ell",
            "4",
            "--two-s",
            "1",
            "--beta-tilde",
            "2.0",
            "--format",
            "csv",
            "--output",
            str(out),
        ],
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == (
        "beta_tilde,leading,correction,error_total,total_upper_bound,hypothesis_ok"
    )
    cells = lines[1].split(",")
    assert cells[-1] in ("0", "1")
    for cell in cells[:-1]:
        assert FLOAT_RE.match(cell), cell


def test_missing_required_value_is_usage_error(capsys):
    code, _, err = run(capsys, ["free-energy", "--d", "3", "--two-s", "2"])
    assert code == 2
    assert "beta" in err.lower()


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment line\n"
        "d = 3\n"
        "two_s = 4\n"
        "beta_tilde = 2.0\n"
    )
    code, out_cfg, _ = run(capsys, ["free-energy", "--config", str(cfg)])
    assert code == 0
    doc = json.loads(out_cfg)
    assert doc["reports"][0]["beta_tilde"] == 2.0
    # explicit flags win over the file
    code, out_flag, _ = run(
        capsys,
        ["free-energy", "--config", str(cfg), "--beta-tilde", "3.0"],
    )
    assert code == 0
    assert json.loads(out_flag)["reports"][0]["beta_tilde"] == 3.0


def test_config_file_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("frobnicate = 1\n")
    code, _, err = run(capsys, ["free-energy", "--config", str(cfg)])
    assert code == 2
    assert "frobnicate" in err


def test_config_file_rejects_malformed_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("d: 3\n")
    code, _, err = run(capsys, ["free-energy", "--config", str(cfg)])
    assert code == 2


def test_correction_table(capsys):
    code, out, _ = run(
        capsys,
        [
            "correction",
            "--d",
            "2",
            "--ell",
            "6",
            "--two-s",
            "2",
            "--beta-tilde",
            "1.0,2.0",
        ],
    )
    assert code == 0
    doc = json.loads(out)
    rows = doc["rows"]
    assert [r["beta_tilde"] for r in rows] == [1.0, 2.0]
    spec = lattice.LatticeSpec(2, 6)
    for r in rows:
        assert r["bulk"] < 0.0
        assert r["continuum"] < 0.0
        want = spinwave.interaction_correction_lattice(spec, 2, r["beta_tilde"])
        assert r["lattice"] == pytest.approx(want, rel=1e-13)


def test_ed_compare_margins(capsys):
    code, out, _ = run(
        capsys,
        [
            "ed-compare",
            "--d",
            "1",
            "--ell",
            "3",
            "--two-s",
            "1",
            "--beta-tilde",
            "2.0,4.0",
        ],
    )
    assert code == 0
    doc = json.loads(out)
    for row in doc["rows"]:
        assert row["margin"] >= -1e-10
        assert row["ok"]


def test_wick_verify_routes(capsys):
    code, out, _ = run(
        capsys,
        [
            "wick-verify",
            "--d",
            "1",
            "--ell",
            "4",
            "--two-s",
            "2",
            "--beta-tilde",
            "2.0",
        ],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["all_ok"] is True
    for check in doc["checks"]:
        assert check["error"] <= check["tol"]
    names = {c["name"] for c in doc["checks"]}
    assert "mode_space_vs_position" in names


def test_diagrams_csv_contract(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code, _, _ = run(
        capsys,
        [
            "diagrams",
            "--ell",
            "4",
            "--beta-tilde",
            "1.0,2.0",
            "--k3-samples",
            "5",
            "--output",
            str(out),
        ],
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "beta_tilde,biggest_error,left_f1f2,combined"
    assert len(lines) == 3
    for line in lines[1:]:
        for cell in line.split(","):
            assert FLOAT_RE.match(cell), cell


def test_diagrams_slopes_summary(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    slopes = tmp_path / "slopes.json"
    code, _, _ = run(
        capsys,
        [
            "diagrams",
            "--ell",
            "3",
            "--beta-tilde",
            "0.8,1.0,1.3,1.7",
            "--k3-samples",
            "5",
            "--output",
            str(out),
            "--slopes",
            str(slopes),
        ],
    )
    assert code == 0
    doc = json.loads(slopes.read_text())
    assert "biggest_error" in doc["slopes"]
    assert doc["k3_residual_max"] < 1e-12


def test_diagrams_rejects_zero_mode_include(capsys):
    code, _, err = run(
        capsys,
        ["diagrams", "--ell", "4", "--beta-tilde", "1.0", "--zero-mode", "include"],
    )
    assert code == 2


def test_diagrams_config_rejects_zero_mode_include(tmp_path, capsys):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("ell = 4\nbeta_tilde = 1.0\nzero_mode = include\n")
    code, _, err = run(capsys, ["diagrams", "--config", str(cfg)])
    assert code == 2
    assert "zero_mode" in err

def test_diagrams_capacity_needs_force(capsys):
    code, _, err = run(
        capsys, ["diagrams", "--ell", "12", "--beta-tilde", "1.0"]
    )
    assert code == 2
    assert "force" in err


def test_verify_single_tag(capsys):
    code, out, _ = run(capsys, ["verify", "--only", "trig"])
    assert code == 0
    assert out.count("PASS") == 1
    assert "trig" in out


def test_verify_unknown_tag(capsys):
    code, _, err = run(capsys, ["verify", "--only", "nonsense"])
    assert code == 2


def test_verify_perturbation_detected(capsys):
    code, out, _ = run(
        capsys,
        ["verify", "--only", "magnon", "--perturb-epsilon", "1e-6"],
    )
    assert code == 1
    assert "FAIL" in out


def test_verify_perturbation_restores_dispersion(capsys):
    # the monkeypatch must be undone even though the run fails
    code, _, _ = run(
        capsys,
        ["verify", "--only", "magnon", "--perturb-epsilon", "1e-6"],
    )
    assert code == 1
    code2, out2, _ = run(capsys, ["verify", "--only", "magnon"])
    assert code2 == 0
    assert "PASS" in out2


def test_float_list_parsing():
    assert cli._float_list("1.0, 2.5,3") == [1.0, 2.5, 3.0]
    # stray separators are tolerated, garbage is not
    assert cli._float_list("1.0,,2.0") == [1.0, 2.0]
    with pytest.raises(Exception):
        cli._float_list("abc")
    with pytest.raises(Exception):
        cli._float_list(",")


def test_int_list_parsing():
    assert cli._int_list("4,8") == [4, 8]
    with pytest.raises(Exception):
        cli._int_list("4.5")


def test_payload_bytes_do_not_depend_on_core_count(monkeypatch, capsys):
    argv = ["ed-compare", "--d", "1", "--ell", "3", "--two-s", "1", "--beta-tilde", "2.0"]
    outs = []
    for cores in (2, 96):
        monkeypatch.setattr(os, "cpu_count", lambda cores=cores: cores)
        code, out, _ = run(capsys, argv)
        assert code == 0
        outs.append(out.encode())
    assert outs[0] == outs[1]
    assert "threads" not in json.loads(outs[0])["config"]
    code, _, _ = run(capsys, argv + ["--threads", "4"])
    assert code == 2


@pytest.mark.parametrize(
    "command, line",
    [
        ("free-energy", "format = xml"),
        ("free-energy", "mode = bogus"),
        ("free-energy", "preset = large-beta"),
        ("ed-compare", "mode = bogus"),
        ("diagrams", "format = xml"),
        ("free-energy", "d = three"),
        ("verify", "only = nonsense"),
    ],
)
def test_config_file_values_held_to_choices(tmp_path, capsys, command, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(
        {
            "free-energy": "d = 3\ntwo_s = 4\nbeta_tilde = 2.0\n",
            "ed-compare": "d = 1\nell = 3\ntwo_s = 1\nbeta_tilde = 2.0\n",
            "diagrams": "ell = 4\nbeta_tilde = 1.0\n",
            "verify": "",
        }[command]
        + line
        + "\n"
    )
    code, out, err = run(capsys, [command, "--config", str(cfg)])
    assert code == 2
    assert out == ""
    assert line.split(" = ")[1] in err


# Consistent settings that together set every option of each subcommand:
# (command, fixed flags, options varied).  Each varied option is set once by
# flag and once by config file, the rest by flag.  free-energy's box and
# asymptotic routes take different options, and the d=3 preset run is slow, so
# it varies only the preset.
FULL_SETTINGS = {
    "free-energy-box": (
        "free-energy",
        "",
        {"d": "1", "ell": "3", "two_s": "1", "beta_tilde": "1.0,2.0", "mode": "exact",
         "format": "csv", "output": "out.csv"},
    ),
    "free-energy-asymptotic": (
        "free-energy",
        "",
        {"d": "2", "two_s": "1", "beta_tilde": "1.0", "remainder_constant": "2.5",
         "format": "json", "output": "out.json"},
    ),
    "free-energy-preset": (
        "free-energy",
        "--d 3 --two-s 4 --beta-tilde 0.5",
        {"preset": "small-beta"},
    ),
    "correction": (
        "correction",
        "",
        {"d": "2", "ell": "3", "two_s": "2", "beta_tilde": "1.0,2.0", "format": "csv",
         "output": "out.csv"},
    ),
    "ed-compare": (
        "ed-compare",
        "",
        {"d": "1", "ell": "3", "two_s": "1", "beta_tilde": "2.0", "mode": "exact",
         "format": "json", "output": "out.json"},
    ),
    "wick-verify": (
        "wick-verify",
        "",
        {"d": "1", "ell": "3", "two_s": "2", "beta_tilde": "2.0", "cutoffs": "4,6",
         "rel_tol": "1e-9", "fock_rel_tol": "0.5", "output": "out.json"},
    ),
    "diagrams": (
        "diagrams",
        "",
        {"ell": "3", "two_s": "2", "beta_tilde": "1.0,2.0", "force": True, "seed": "3",
         "k3_samples": "5", "format": "csv", "slopes": "slopes.json", "output": "out.csv"},
    ),
    "verify": ("verify", "", {"only": "trig", "perturb_epsilon": "1e-6", "output": "out.txt"}),
}


def flag_args(dest, value):
    flag = "--" + dest.replace("_", "-")
    return [flag] if value is True else [flag, value]


def test_full_settings_cover_every_option():
    for name, _, _, options in cli._COMMANDS:
        covered = {
            dest for cmd, _, values in FULL_SETTINGS.values() if cmd == name for dest in values
        }
        assert covered == {dest for dest, _, _, _ in options} | {"output"}, name


@pytest.mark.parametrize(
    "setting, dest",
    [(setting, dest) for setting, (_, _, values) in FULL_SETTINGS.items() for dest in values],
)
def test_option_by_flag_or_config_gives_same_bytes(tmp_path, monkeypatch, capsys, setting, dest):
    command, fixed, values = FULL_SETTINGS[setting]
    base = [command] + fixed.split()
    for name, value in values.items():
        if name != dest:
            base += flag_args(name, value)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{dest} = {'true' if values[dest] is True else values[dest]}\n")
    results = []
    for source, argv in (("flag", base + flag_args(dest, values[dest])),
                         ("config", base + ["--config", str(cfg)])):
        work = tmp_path / source
        work.mkdir()
        monkeypatch.chdir(work)
        code, out, err = run(capsys, argv)
        assert code == 0, err
        files = {p.name: p.read_bytes() for p in work.iterdir()}
        assert out or files
        results.append((out, err, files))
    assert results[0] == results[1]


def test_echoed_config_holds_only_computation_options(tmp_path, capsys):
    out, slopes = tmp_path / "scan.csv", tmp_path / "slopes.json"
    code, _, _ = run(
        capsys,
        ["diagrams", "--ell", "3", "--beta-tilde", "1.0", "--k3-samples", "2", "--force",
         "--format", "csv", "--slopes", str(slopes), "--output", str(out)],
    )
    assert code == 0
    assert json.loads(slopes.read_text())["config"] == {
        "ell": 3, "beta_tilde": "1.0", "k3_samples": 2, "force": True,
    }


def csv_cells(text):
    header, row = text.splitlines()
    return dict(zip(header.split(","), row.split(",")))


def test_correction_csv_writes_nan_for_missing_forms(capsys):
    code, out, _ = run(
        capsys,
        ["correction", "--d", "1", "--ell", "3", "--two-s", "2", "--beta-tilde", "1.0",
         "--format", "csv"],
    )
    assert code == 0
    cells = csv_cells(out)
    assert cells["bulk"] == cells["continuum"] == "nan"
    assert FLOAT_RE.match(cells["lattice"])


def test_ed_compare_csv_writes_ok_as_integer(capsys):
    code, out, _ = run(
        capsys,
        ["ed-compare", "--d", "1", "--ell", "3", "--two-s", "1", "--beta-tilde", "2.0",
         "--format", "csv"],
    )
    assert code == 0
    assert csv_cells(out)["ok"] == "1"


def test_zero_mode_option_is_gone(capsys):
    code, out, err = run(
        capsys, ["diagrams", "--ell", "4", "--beta-tilde", "1.0", "--zero-mode", "exclude"]
    )
    assert code == 2
    assert out == ""
    assert "--zero-mode" in err


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize(
    "base, dest, value",
    [
        ("free-energy --d 3 --two-s 4 --beta-tilde 2.0", "mode", "auto"),
        ("free-energy --d 1 --ell 3 --two-s 1 --beta-tilde 2.0", "preset", "small-beta"),
        ("free-energy --d 1 --ell 3 --two-s 1 --beta-tilde 2.0", "remainder_constant", "5"),
        ("diagrams --ell 3 --beta-tilde 1.0 --k3-samples 2 --format json", "slopes", "s.json"),
        ("wick-verify --d 1 --ell 3 --two-s 2", "beta_tilde", "1,2"),
    ],
)
def test_ignored_or_malformed_options_are_refused(
    tmp_path, monkeypatch, capsys, base, dest, value, source
):
    monkeypatch.chdir(tmp_path)
    argv = base.split()
    if source == "flag":
        argv += flag_args(dest, value)
    else:
        (tmp_path / "run.cfg").write_text(f"{dest} = {value}\n")
        argv += ["--config", "run.cfg"]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "--" + dest.replace("_", "-") in err
    assert [p.name for p in tmp_path.iterdir()] in ([], ["run.cfg"])
