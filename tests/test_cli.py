import inspect
import math
import re

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
def test_steady_with_omega_over_t_underflowing_stays_finite(tmp_path, capsys):
    # omega / T underflows to 0, where x / expm1(x) is 0/0 (its limit is 1),
    # and omega over the mean energy underflows too; T_ss is then the
    # rate-weighted mean of the temperatures
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("omega = 1e-300\ntemperatures = 1e300, 5e299\ngammas = 1e-301, 1e-301\n")
    out = tmp_path / "steady.csv"
    assert run(["steady", "--config", str(cfg), "--out", str(out)]) == 0
    # stdout prints T_ss with the CSV's 9 significant digits, not 300 of them
    assert capsys.readouterr().out == "T_S^ss = 7.5e+299\n"
    table = read_csv(out)
    assert all(math.isfinite(cell) for cell in table.rows[0])
    assert table.column("steady_temperature")[0] == pytest.approx(7.5e299, rel=1e-12, abs=0)


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


@pytest.mark.filterwarnings("error")
def test_thermalize_rk4_guards_exit_3_with_one_line(tmp_path, capsys):
    cfg = tmp_path / "guard.cfg"
    out = tmp_path / "curves.csv"
    # a bath at the float maximum overflows its thermal occupation; the
    # guard names the bath before any generator is built from it
    cfg.write_text("temperatures = 1.7976931348623157e308, 1\nrate_pairs = 0.1 0.1\n")
    assert run(["thermalize", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: guard: bath 0 temperature") and "shrink dt" not in err
    assert err.count("\n") == 1
    # the decay guard passes at these rates, the rotation guard does not
    cfg.write_text("rate_pairs = 0.01 0.01\ndt = 1.5\nt_end = 100\n")
    assert run(["thermalize", "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err == "error: guard: omega * dt = 1.5 exceeds 1.0; shrink dt below 1\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", [
    "temperatures = 1e308\ngammas = 0.1\n",
    "temperatures = 1e308, 1e308, 0\ngammas = 10, 10, 1\n",
    "frequency = 0.001\ncoupling = 0.0001\ntemperatures = 1e308, 1\ngammas = 0.1, 0.1\n",
    "frequency = 4\ncoupling = 0.1\ntemperatures = 1e-308\ngammas = 1\n",
])
def test_collide_with_an_extreme_reservoir_temperature_runs(tmp_path, capsys, text):
    # 2 nbar + 1, Gamma (nbar + 1/2), their sum or nbar itself overflows, or
    # the ancilla's Boltzmann factor underflows
    cfg = tmp_path / "extreme.cfg"
    cfg.write_text(text)
    out = tmp_path / "out.csv"
    assert run(["collide", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    table = read_csv(out)
    hottest = max(float(t) for t in table.metadata["temperatures"].split(","))
    assert all(0.0 <= t <= hottest for t in table.column("temperature"))


@pytest.mark.filterwarnings("error")
def test_thermalize_occupation_beyond_the_float_range_exits_3(tmp_path, capsys):
    # omega / T underflows to 0, so nbar = 1 / expm1(0) is beyond any float
    cfg = tmp_path / "guard.cfg"
    cfg.write_text("omega = 1e-300\ntemperatures = 1e300, 1\nrate_pairs = 1e-302 1e-302\n")
    out = tmp_path / "curves.csv"
    assert run(["thermalize", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: guard: bath 0 temperature 1e+300 gives a non-finite thermal occupation")
    assert err.count("\n") == 1
    assert not out.exists()


def test_missing_config_file_exits_2(capsys):
    assert run(["steady", "--config", "/nonexistent/path.cfg"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv, target", [
    (["steady"], "missing/out.csv"),
    (["verify", "--only", "7"], "missing/out.csv"),
    (["sweep-gamma", "--svg"], "out.csv"),  # the SVG path is taken by a directory
])
def test_unwritable_output_exits_2_with_one_line(tmp_path, capsys, argv, target):
    (tmp_path / "out.svg").mkdir()
    assert run([*argv, "--out", str(tmp_path / target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: cannot write output file:")
    assert err.count("\n") == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, text, count", [
    ("thermalize", "t_end = 1e300\n", "2e+301 steps"),
    ("collide", "collisions = 100000000000000000000\n", "n=100000000000000000000 collisions"),
    ("collide", "collisions = 100000000000000000000\nschedule = sampled\n",
     "n=100000000000000000000 collisions"),
])
def test_step_counts_beyond_maxsize_exit_2_with_one_line(tmp_path, capsys, command, text, count):
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(text)
    out = tmp_path / "out.csv"
    assert run([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and count in err
    assert err.count("\n") == 1
    assert not out.exists()


# each count fits an int but its float64 array would not fit in memory: numpy
# refuses the allocation at once, before touching any memory
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, text", [
    ("classify-temp", "n = 1000000000000000000\n"),
    ("classify-gamma", "n = 1000000000000000000\n"),
    ("sweep-gamma", "n_points = 1000000000000000000\n"),
])
def test_counts_beyond_memory_exit_2_with_one_line(tmp_path, capsys, command, text):
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(text)
    out = tmp_path / "out.csv"
    assert run([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: out of memory:") and "Unable to allocate" in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_bare_memory_error_exits_2_with_one_line(tmp_path, monkeypatch, capsys):
    from thermoclass import classifier

    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(classifier, "generate_instances", out_of_memory)
    out = tmp_path / "out.csv"
    assert run(["classify-temp", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: out of memory") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["classify-temp", "classify-gamma"])
def test_classify_calls_generate_instances_once_with_the_config_n(tmp_path, monkeypatch, command):
    # the benchmark's tracer counts classify's instances by wrapping
    # classifier.generate_instances and reading its bound argument n
    from thermoclass import classifier

    original = classifier.generate_instances
    counts = []

    def counting(*args, **kwargs):
        counts.append(inspect.signature(original).bind(*args, **kwargs).arguments["n"])
        return original(*args, **kwargs)

    monkeypatch.setattr(classifier, "generate_instances", counting)
    cfg = tmp_path / "n.cfg"
    cfg.write_text("n = 37\n")
    assert run([command, "--config", str(cfg)]) == 0
    assert counts == [37]


@pytest.mark.filterwarnings("error")
def test_thermalize_record_stride_beyond_run_records_ends_only(tmp_path, capsys):
    cfg = tmp_path / "sparse.cfg"
    cfg.write_text("sample_every = 1e300\nt_end = 100\n")
    out = tmp_path / "out.csv"
    assert run(["thermalize", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert [row[0] for row in read_csv(out).rows] == [0.0, 100.0]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("schedule", ["mixture", "sampled"])
def test_collide_record_stride_beyond_run_records_ends_only(tmp_path, capsys, schedule):
    cfg = tmp_path / "sparse.cfg"
    cfg.write_text(f"schedule = {schedule}\ncollisions = 200\nrecord_every = 100000000000000000000\n")
    out = tmp_path / "out.csv"
    assert run(["collide", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert [row[0] for row in read_csv(out).rows] == [0.0, 200.0]


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


# `thermoclass verify` at the commit that batched the collision criteria,
# elapsed seconds masked
VERIFY_LINES = """\
[1/8] ode-vs-analytic steady state: PASS (100 configs, max trace distance 2.85e-10, <s> s)
[2/8] relaxation-curve asymptotes: PASS (finals 2.013636, 2.343694, 1.681284; max err 4.33e-10; equal-rate vs mean 0.68%)
[3/8] rate-sweep endpoints/monotonicity/linearity: PASS (endpoint err 0.0e+00, monotone=True, chord deviation 0.01467 <= 0.0147)
[4/8] collision homogenization: PASS (T=0.5: 1912 collisions, T=1.0: 2237 collisions, T=2.0: 2373 collisions, \
T=5.0: 2443 collisions; <s> s)
[5/8] collision-vs-continuous cross-check: PASS (max rel err 1.72e-08 (calibrated weights; plain rate weighting \
would deviate up to 43%))
[6/8] linear separability of labeled instances: PASS (20 points (2 labels), zero training error: True; XOR refused: True)
[7/8] hardware timing budget: PASS (total=10 us over 2000 collisions (5 ns each), feasible (T1=20 us); \
100x faster than a 1 ms classical baseline)
[8/8] structural property sweep: PASS (residual 1.2e-16, bracketing, rescaling, composition, determinism)
"""


def test_verify_lines_match_the_reference_text(capsys):
    assert run(["verify"]) == 0
    assert re.sub(r"\d+\.\d s\)$", "<s> s)", capsys.readouterr().out, flags=re.M) == VERIFY_LINES


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
    monkeypatch.setattr(acceptance, "run_all", lambda only=None: fake)
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
