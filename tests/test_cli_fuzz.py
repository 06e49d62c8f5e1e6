"""A fuzz test of cli.main with generated subcommands, config text and flags.

Whatever it is given, main ends in a result or in one error line: exit 0
with the CSV written, or exit 2 or 3 with one `error: ` line on stderr and no
output file. An exception that escapes main, a RuntimeWarning included (the
suite turns those into errors), fails the test as a traceback would.

Run lengths and counts are drawn either small (at most 50 instances or
sweep points, 2000 collisions or 2000 RK4 steps) or at 1e18 and beyond,
where numpy or the sys.maxsize checks refuse them at once. Values between
would run for minutes and allocate gigabytes, so they are never drawn.
"""

import contextlib
import io
import math
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from thermoclass import cli

# A valid choice is listed more often than the invalid ones, so that most
# runs get past the config checks and reach the numerics.
HUGE = st.sampled_from([10**18, 10**20, 10**30])
# the count keys and the largest small value of each
SMALL = {"n": 50, "n_points": 50, "collisions": 2000}
VALID = st.floats(0.001, 10).map(repr)
NUMBER = st.one_of(VALID, VALID, VALID,
                   st.sampled_from(["0", "-1", "nan", "inf", "-inf", "1e308", "1e-308", "x"]))
NUMBERS = st.lists(NUMBER, min_size=1, max_size=4).map(", ".join)
LIST = st.one_of(NUMBERS, NUMBERS, NUMBERS, st.sampled_from(["", ",", ";", "1;2", "1, x"]))
INT = st.integers(-2, 20).map(str)
KINDS = {
    "float": NUMBER,
    "int": st.one_of(INT, INT, INT, HUGE.map(str), st.sampled_from(["x", "1.5"])),
    "floats": LIST,
    "pairs": st.one_of(st.lists(NUMBERS, min_size=1, max_size=4).map("; ".join), LIST),
}
WORDS = {"rule": ["instance_mean", "fixed_threshold"], "weights": ["calibrated", "proportional"],
         "schedule": ["mixture", "sampled"]}
# --only: the fast criteria and invalid numbers
ONLY = st.lists(st.sampled_from(["3", "6", "7"] * 2 + ["0", "9", "x"]), min_size=1, max_size=3).map(",".join)


def _value(command, key):
    if key in SMALL:
        return st.one_of(st.integers(-1, SMALL[key]), st.integers(-1, SMALL[key]), HUGE).map(str)
    if key in WORDS:
        return st.sampled_from([*WORDS[key], "bogus"])
    if key == "experiment":
        return st.sampled_from([command, command, "steady", "bogus"])
    if key == "bogus":
        return NUMBER
    return KINDS[cli.SCHEMAS[command][key][0]]


@st.composite
def _run_length(draw):
    """The dt and t_end lines of thermalize, t_end / dt small or huge when
    dt is a valid step."""
    dt = draw(NUMBER)
    step = float(dt) if dt != "x" else math.nan
    if not (math.isfinite(step) and step > 0):
        return {"dt": dt, "t_end": draw(NUMBER)}
    steps = draw(st.one_of(st.floats(0, 2000), st.floats(0, 2000), HUGE.map(float)))
    return {"dt": dt, "t_end": repr(step * steps)}


@st.composite
def invocations(draw):
    """(argv, config text) of one main call; CFG and OUT stand for paths."""
    command = draw(st.sampled_from(sorted(cli.SCHEMAS)))
    keys = [key for key in cli.SCHEMAS[command] if key not in ("dt", "t_end")]
    chosen = draw(st.lists(st.sampled_from(keys), unique=True, max_size=4)) if keys else []
    chosen += draw(st.sampled_from([[], [], [], ["experiment"], ["bogus"]]))
    values = {key: draw(_value(command, key)) for key in chosen}
    if command == "thermalize":
        values.update(draw(_run_length()))
    text = "".join(f"{key} = {value}\n" for key, value in values.items())
    text += draw(st.sampled_from(["", "", "", "# a comment\n", "= 1\n", "omega\n", "omega = 1\n"]))

    argv = [command]
    config = draw(st.sampled_from(["CFG", "CFG", "CFG", "CFG.missing", None]))
    if config:
        argv += ["--config", config]
    seed = draw(st.sampled_from([None, None, None, "0", "7", "-1", "x"]))
    if seed is not None:
        argv += ["--seed", seed]
    jobs = draw(st.one_of(st.none(), st.integers(1, 4)))
    if jobs is not None:
        argv += ["--jobs", str(jobs)]
    if draw(st.sampled_from([True, True, True, False])):
        argv += ["--out", "OUT"]
    if draw(st.booleans()):
        argv.append("--svg")
    if command == "verify":
        argv += ["--only", draw(ONLY)]
    return argv, text


@settings(max_examples=150, deadline=None)
@given(invocations())
def test_main_ends_in_a_result_or_one_error_line(invocation):
    argv, text = invocation
    with tempfile.TemporaryDirectory() as work:
        cfg, out = os.path.join(work, "run.cfg"), os.path.join(work, "out.csv")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(text)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main([arg.replace("CFG", cfg).replace("OUT", out) for arg in argv])
        written = sorted(os.listdir(work))
    err = stderr.getvalue()
    assert code in (0, 2, 3), err
    if code == 0:
        assert "--out" not in argv or "out.csv" in written
    else:
        assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1, err
        assert "Traceback" not in err
        assert written == ["run.cfg"]
