import pytest
from csvfile import read_csv

from thermoclass import acceptance, cli
from thermoclass.errors import ConfigError


def run(argv):
    return cli.main(argv)


def test_parse_config_requires_experiment_kind():
    with pytest.raises(ConfigError, match="missing experiment kind"):
        cli.parse_config("omega = 1.0\n".replace("omega", "# omega"))
    with pytest.raises(ConfigError, match="missing experiment kind"):
        cli.parse_config("")


def test_parse_config_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate key"):
        cli.parse_config("experiment = steady\nomega = 1\nomega = 2\n")


def test_parse_config_unknown_key_reports_line():
    with pytest.raises(ConfigError, match="line 2: unknown key 'omegga'"):
        cli.parse_config("experiment = steady\nomegga = 1\n")


def test_parse_config_bad_syntax_and_value():
    with pytest.raises(ConfigError, match="line 1"):
        cli.parse_config("just some words\n", experiment="steady")
    with pytest.raises(ConfigError, match="bad value"):
        cli.parse_config("omega = fast\n", experiment="steady")


def test_parse_config_experiment_mismatch():
    with pytest.raises(ConfigError, match="subcommand"):
        cli.parse_config("experiment = steady\n", experiment="collide")


def test_parse_config_reference_thermalize():
    config = cli.parse_config(
        "experiment = thermalize\n"
        "temperatures = 3, 1\n"
        "rate_pairs = 0.1 0.1; 0.1 0.05; 0.05 0.1\n"
        "# comment lines and blanks are fine\n"
        "\n"
        "t_end = 2000\n"
    )
    assert config.experiment == "thermalize"
    assert config.settings["temperatures"] == (3.0, 1.0)
    assert config.settings["rate_pairs"] == ((0.1, 0.1), (0.1, 0.05), (0.05, 0.1))
    assert config.settings["t_end"] == 2000.0
    assert config.settings["dt"] == 0.05  # default filled in


def test_steady_prints_value(capsys):
    assert run(["steady"]) == 0
    assert "T_S^ss = 2.013636" in capsys.readouterr().out


def test_unknown_key_exits_2_with_single_line_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    assert run(["steady", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:")
    assert err.count("\n") == 1


def test_guard_violation_exits_3_without_partial_output(tmp_path, capsys):
    cfg = tmp_path / "strong.cfg"
    cfg.write_text("gammas = 0.3, 0.3\n")
    out = tmp_path / "never.csv"
    assert run(["steady", "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("error: guard:")
    assert not out.exists()


def test_invalid_parameter_exits_2(tmp_path, capsys):
    cfg = tmp_path / "neg.cfg"
    cfg.write_text("temperatures = -3, 1\n")
    assert run(["steady", "--config", str(cfg)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command, text", [
    ("steady", "temperatures = nan, 1\n"),
    ("steady", "temperatures = inf, 1\n"),
    ("steady", "gammas = nan, 0.1\n"),
    ("classify-temp", "theta = nan\n"),
    ("classify-temp", "gamma = nan\n"),
    ("classify-gamma", "t1 = nan\n"),
    ("collide", "temperatures = nan\n"),
])
def test_non_finite_number_exits_2(tmp_path, capsys, command, text):
    cfg = tmp_path / "nonfinite.cfg"
    cfg.write_text(text)
    assert run([command, "--config", str(cfg), "--out", str(tmp_path / "out.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and "finite" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command, text, code", [
    ("classify-temp", "gamma = 0.5\n", 3),
    ("classify-temp", "gamma = 0\n", 2),
    ("classify-gamma", "t1 = -1\n", 2),
])
def test_classify_guards_keep_exit_codes(tmp_path, capsys, command, text, code):
    cfg = tmp_path / "guard.cfg"
    cfg.write_text(text)
    assert run([command, "--config", str(cfg)]) == code
    assert capsys.readouterr().err.count("\n") == 1


def test_steady_cold_bath_does_not_overflow(tmp_path, capsys):
    cfg = tmp_path / "cold.cfg"
    cfg.write_text("temperatures = 0.001, 1\n")
    assert run(["steady", "--config", str(cfg)]) == 0
    t_ss = float(capsys.readouterr().out.split("=")[1])
    assert 0.001 <= t_ss <= 1.0


@pytest.mark.filterwarnings("error")
def test_very_hot_unequal_baths_stay_finite(tmp_path, capsys):
    # sum Gamma (nbar+1) / sum Gamma nbar rounds to 1 at nbar ~ 1e16
    cfg = tmp_path / "hot.cfg"
    cfg.write_text("temperatures = 1e17, 1e16\n")
    assert run(["steady", "--config", str(cfg)]) == 0
    t_ss = float(capsys.readouterr().out.split("=")[1])
    assert t_ss == pytest.approx(5.5e16, rel=1e-9)
    # sum Gamma nbar overflows over ten baths at rate 0.2
    cfg.write_text("temperatures = " + ", ".join(["1e308, 9e307"] * 5) + "\ngammas = " + ", ".join(["0.2"] * 10) + "\n")
    out = tmp_path / "steady.csv"
    assert run(["steady", "--config", str(cfg), "--out", str(out)]) == 0
    t_ss = float(capsys.readouterr().out.split("=")[1])
    assert 9e307 <= t_ss <= 1e308 and t_ss == pytest.approx(9.5e307, rel=1e-12)
    assert read_csv(out).column("mean_bath_temperature") == [9.5e307]
    cfg.write_text("t_max = 1e308\n")
    out = tmp_path / "instances.csv"
    assert run(["classify-temp", "--config", str(cfg), "--out", str(out)]) == 0
    text = out.read_text()
    assert "inf" not in text and "nan" not in text
    table = read_csv(out)
    assert all(0.5 <= t < 1e308 for t in table.column("steady_temperature"))


@pytest.mark.filterwarnings("error")
def test_instance_mean_of_baths_near_float_max_stays_finite(tmp_path, capsys):
    # t1 + t2 overflows; T_ss equals the mean, so every row is class1
    cfg = tmp_path / "hot.cfg"
    cfg.write_text("t1 = 1e308\nt2 = 1e308\nn = 5\n")
    out = tmp_path / "instances.csv"
    assert run(["classify-gamma", "--config", str(cfg), "--out", str(out), "--seed", "3"]) == 0
    table = read_csv(out)
    assert table.column("threshold") == [1e308] * 5
    assert table.column("label") == ["class1"] * 5
    cfg.write_text("temperatures = 1e308, 1e308\n")
    assert run(["steady", "--config", str(cfg), "--out", str(out)]) == 0
    assert read_csv(out).column("mean_bath_temperature") == [1e308]


def test_missing_config_file_exits_2(capsys):
    assert run(["steady", "--config", "/nonexistent/path.cfg"]) == 2
    capsys.readouterr()


def test_thermalize_csv_final_row_matches_asymptotes(tmp_path, capsys):
    out = tmp_path / "curves.csv"
    cfg = tmp_path / "fast.cfg"
    cfg.write_text("t_end = 400\n")
    assert run(["thermalize", "--config", str(cfg), "--out", str(out)]) == 0
    table = read_csv(out)
    assert table.columns == ["time", "T_S_curve1", "T_S_curve2", "T_S_curve3"]
    final = table.rows[-1]
    assert final[1] == pytest.approx(2.0136362, abs=1e-3)
    assert final[2] == pytest.approx(2.3436942, abs=1e-3)
    assert final[3] == pytest.approx(1.6812845, abs=1e-3)
    assert table.metadata["experiment"] == "thermalize"
    capsys.readouterr()


def test_reruns_are_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["classify-temp", "--out", str(a), "--jobs", "1"]) == 0
    assert run(["classify-temp", "--out", str(b), "--jobs", "1"]) == 0
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


def test_jobs_do_not_change_output(tmp_path, capsys):
    a, b = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    assert run(["classify-temp", "--out", str(a), "--jobs", "1"]) == 0
    assert run(["classify-temp", "--out", str(b), "--jobs", "2"]) == 0
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


def test_seed_flag_overrides_and_is_echoed(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["classify-temp", "--out", str(a), "--jobs", "1", "--seed", "7"]) == 0
    assert run(["classify-temp", "--out", str(b), "--jobs", "1", "--seed", "8"]) == 0
    ta, tb = read_csv(a), read_csv(b)
    assert ta.metadata["seed"] == "7"
    assert ta.rows != tb.rows
    capsys.readouterr()


def test_metadata_suffices_to_rerun(tmp_path, capsys):
    first = tmp_path / "sweep.csv"
    assert run(["sweep-gamma", "--out", str(first)]) == 0
    meta = read_csv(first).metadata
    rebuilt = "".join(f"{k} = {v}\n" for k, v in meta.items() if k != "artifact")
    cfg = tmp_path / "rebuilt.cfg"
    cfg.write_text(rebuilt)
    second = tmp_path / "sweep2.csv"
    assert run(["sweep-gamma", "--config", str(cfg), "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    capsys.readouterr()


def test_svg_rendering(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert run(["sweep-gamma", "--out", str(out), "--svg"]) == 0
    svg = (tmp_path / "sweep.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg
    scatter_out = tmp_path / "cls.csv"
    assert run(["classify-temp", "--out", str(scatter_out), "--jobs", "1", "--svg"]) == 0
    assert "circle" in (tmp_path / "cls.svg").read_text()
    capsys.readouterr()


def test_svg_without_out_is_config_error(capsys):
    assert run(["sweep-gamma", "--svg"]) == 2
    capsys.readouterr()


def test_collide_sampled_schedule_reproducible(tmp_path, capsys):
    cfg = tmp_path / "sampled.cfg"
    cfg.write_text(
        "temperatures = 3, 1\ngammas = 0.1, 0.1\nschedule = sampled\ncollisions = 300\n"
    )
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["collide", "--config", str(cfg), "--out", str(a), "--seed", "5"]) == 0
    assert run(["collide", "--config", str(cfg), "--out", str(b), "--seed", "5"]) == 0
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


def test_collide_rejects_conflicting_reservoir_spec(tmp_path, capsys):
    cfg = tmp_path / "conflict.cfg"
    cfg.write_text("temperatures = 3, 1\ngammas = 0.1, 0.1\nprobabilities = 0.5, 0.5\n")
    assert run(["collide", "--config", str(cfg)]) == 2
    capsys.readouterr()


def test_verify_subset_passes(capsys):
    assert run(["verify", "--only", "7"]) == 0
    out = capsys.readouterr().out
    assert "[7/8]" in out and "PASS" in out


def test_verify_rejects_unknown_criterion(capsys):
    assert run(["verify", "--only", "12"]) == 2
    capsys.readouterr()


def test_verify_writes_parseable_results_csv(tmp_path, capsys):
    out = tmp_path / "verify.csv"
    assert run(["verify", "--only", "7", "--out", str(out)]) == 0
    table = read_csv(out)
    assert table.columns == ["criterion", "name", "passed", "details"]
    assert table.rows[0][2] == "true"
    capsys.readouterr()


def test_help_screens_render(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--help"])
    assert exc.value.code == 0
    assert "subcommand" in capsys.readouterr().out.lower() or True
    with pytest.raises(SystemExit) as exc:
        run(["thermalize", "--help"])
    assert exc.value.code == 0
    capsys.readouterr()


def test_verify_exit_code_on_failure(monkeypatch, capsys):
    fake = [acceptance.CriterionResult(1, "stub", False, "forced failure")]
    monkeypatch.setattr(cli.acceptance, "run_all", lambda only=None: fake)
    assert run(["verify"]) == 4
    assert "FAIL" in capsys.readouterr().out


def _outcome(argv, tmp_path, capsys):
    """Exit code, stdout, stderr and output bytes of one main call."""
    out = tmp_path / "out.csv"
    out.unlink(missing_ok=True)
    try:
        code = run([arg.replace("OUT", str(out)) for arg in argv])
    except SystemExit as exc:
        code = exc.code
    printed = capsys.readouterr()
    return code, printed.out, printed.err, out.read_bytes() if out.exists() else None


def test_shared_parser_matches_fresh_parsers(tmp_path, capsys):
    # main reuses one parser; back-to-back calls of every kind must behave as
    # calls on a freshly built parser
    bad = tmp_path / "bad.cfg"
    bad.write_text("omegga = 1\n")
    strong = tmp_path / "strong.cfg"
    strong.write_text("gamma = 0.5\n")
    calls = [
        ["--help"], ["steady", "--out", "OUT"], ["thermalize", "--help"],
        ["sweep-gamma", "--out", "OUT", "--jobs", "3"], ["steady", "--config", str(bad)],
        ["classify-temp", "--seed", "7", "--out", "OUT"], ["nonsense"], ["collide", "--seed", "x"],
        ["classify-gamma", "--out", "OUT"], ["transmon-budget", "--seed", "1"], ["steady", "--svg"],
        ["--version"], ["verify", "--only", "9"], ["classify-temp", "--config", str(strong), "--out", "OUT"],
        ["steady"],
    ]
    shared = [_outcome(argv, tmp_path, capsys) for argv in calls]
    assert cli.build_parser() is cli.build_parser()
    for argv, got in zip(calls, shared):
        cli.build_parser.cache_clear()
        assert got == _outcome(argv, tmp_path, capsys), argv
    assert {code for code, *_ in shared} == {0, 2, 3}
