import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import ModuleType

import pytest

import fanocount
from fanocount import grassmann, pipeline
from fanocount.cli import _build_parser, main

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, payload):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_parser_is_built_once():
    assert _build_parser() is _build_parser()


def outcome(capsys, argv):
    """Exit code and stdout bytes of one in-process call, argparse exits included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().out.encode()


def alone(argv):
    """Exit code and stdout bytes of the same call in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-m", "fanocount.cli", *argv], capture_output=True, env=env
    )
    return done.returncode, done.stdout


def test_calls_in_one_process_match_calls_alone(capsys):
    sequence = [
        ["verify", "--format", "json"],
        ["matrix"],
        ["invert", "--variety", "V10", "--periods", "1,2"],
        ["d3", "--variety", "V14", "--lambda", "1/2"],
        ["verify", "--format", "json"],
    ]
    results = [outcome(capsys, argv) for argv in sequence]
    assert [code for code, _ in results] == [0, 2, 2, 0, 0]
    assert results == [alone(argv) for argv in sequence]


def test_warm_caches_print_what_cold_caches_print(capsys, tmp_path):
    # the per-process tables of the residue sum, interleaved over varieties,
    # orders and subcommands: each call prints what it prints after a reset
    configs = ["V10", "V14"]
    for r, n in ((2, 5), (3, 6), (2, 7)):
        path = tmp_path / f"g{r}{n}.json"
        path.write_text(json.dumps({"ambient": {"type": "grassmannian", "r": r, "n": n}, "degrees": [1]}))
        configs.append(str(path))
    sequence = []
    for order in ("13", "5", "7"):
        sequence.append(["verify", "--format", "json"])
        for variety in configs:
            for command in ("report", "iseries"):
                sequence.append([command, "--variety", variety, "--order", order, "--format", "json"])
    for argv in sequence:
        warm = run(capsys, *argv)
        grassmann._expansion_plan.cache_clear()
        assert run(capsys, *argv) == warm, argv


def test_verify_all_green(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert out.splitlines()[-1] == "33 ok, 1 flagged, 0 mismatched"


def test_verify_json_row_count(capsys):
    code, out, _ = run(capsys, "verify", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == 0
    assert len(payload["rows"]) == 34


def test_verify_corrupt_exits_nonzero(capsys):
    code, out, _ = run(capsys, "verify", "--corrupt", "V14:matrix.a03")
    assert code == 1
    assert "V14:matrix.a03" in out
    assert "mismatch" in out


def test_verify_corrupt_unknown_label(capsys):
    code, _, err = run(capsys, "verify", "--corrupt", "V10:matrix.bogus")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "variety, label",
    [("all", "V10:matrix.bogus"), ("V14", "V10:matrix.a01"), ("V10", "V14:matrix.a01")],
)
def test_verify_corrupt_label_is_refused_before_any_stage(capsys, monkeypatch, variety, label):
    # a label of no golden entry, or of the variety not selected, is refused
    # with exit 2 and the selected variety named, before a pipeline runs
    runs = []
    monkeypatch.setattr(pipeline, "run_pipeline", lambda *args, **kw: runs.append(args))
    code, out, err = run(capsys, "verify", "--variety", variety, "--corrupt", label)
    assert (code, out, runs) == (2, "", [])
    assert err == (
        f"error: stage config: ConfigError: no golden entry labelled {label!r} "
        f"for variety {variety!r}\n"
    )


def fractions_built(capsys, argv) -> int:
    """`Fraction.__new__` calls in one warm `main(argv)` call, counted with a
    profile hook; the first call fills the process-wide caches."""
    assert main(argv) == 0
    capsys.readouterr()
    calls = 0
    code = Fraction.__new__.__code__

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is code:
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        status = main(argv)
    finally:
        sys.setprofile(previous)
    assert status == 0
    capsys.readouterr()
    return calls


def test_fraction_budget_of_warm_calls(capsys, tmp_path):
    # the series path, from the residue sum to stdout, and the solver stage
    # with verify's read-out run on integers over shared denominators; a
    # Fraction is built where a caller reads a value, a value that already
    # is an int or a Fraction is not wrapped again, the digit estimate is one
    # Fraction, each run builds alpha once and negates it once.  Measured on
    # Python 3.11: 12 for verify, 6 for the report, 1 for iseries; the bounds
    # allow about 30% more.  Python 3.12 and later build fewer (arithmetic
    # skips the constructor).
    g36 = write_config(
        tmp_path, {"ambient": {"type": "grassmannian", "r": 3, "n": 6}, "degrees": [1]}
    )
    assert fractions_built(capsys, ["verify", "--format", "json"]) <= 16
    report = ["report", "--variety", "V10", "--order", "13", "--format", "json"]
    assert fractions_built(capsys, report) <= 8
    assert fractions_built(capsys, ["iseries", "--variety", g36, "--order", "7"]) <= 2


def test_matrix_json(capsys):
    code, out, _ = run(capsys, "matrix", "--variety", "V10", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["deg"] == 10
    assert payload["entries"]["a01"] == "156"
    assert payload["rows"][3] == ["0", "0", "1", "0"]


def test_matrix_output_is_byte_identical(capsys):
    _, first, _ = run(capsys, "matrix", "--variety", "V14", "--format", "json")
    _, second, _ = run(capsys, "matrix", "--variety", "V14", "--format", "json")
    assert first == second


def test_iseries_text(capsys):
    code, out, _ = run(capsys, "iseries", "--variety", "V14", "--order", "3")
    assert code == 0
    assert "G(2,6)" in out
    assert len(out.splitlines()[1].split()) == 4  # "c0:" plus three coefficients


def test_lefschetz_json(capsys):
    code, out, _ = run(capsys, "lefschetz", "--variety", "V10", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha"] == "6"
    assert payload["c0"][2] == "39"


def test_periods_json(capsys):
    code, out, _ = run(capsys, "periods", "--variety", "V14", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["periods"] == ["16", "52", "230", "764", "41291/18"]
    assert payload["discriminant"] == "-221200"


def test_invert_roundtrip_default(capsys):
    code, out, _ = run(capsys, "invert", "--variety", "V10", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["roundtrip_ok"] is True
    assert payload["entries"]["a03"] == "33120"


@pytest.mark.parametrize("format", ["json", "text"])
@pytest.mark.parametrize("variety", ["V10", "V14"])
def test_invert_roundtrip_ignores_the_output_degree(capsys, variety, format):
    # --deg labels the output matrix; the periods do not read it, so the
    # variety's own periods still invert to its own entries
    code, out, _ = run(capsys, "invert", "--variety", variety, "--deg", "3", "--format", format)
    assert code == 0
    if format == "json":
        payload = json.loads(out)
        assert (payload["deg"], payload["roundtrip_ok"]) == (3, True)
        own = json.loads(run(capsys, "matrix", "--variety", variety, "--format", "json")[1])
        assert payload["entries"] == own["entries"] and own["deg"] != 3
    else:
        lines = out.splitlines()
        assert lines[1] == "deg = 3" and lines[-1] == "roundtrip ok: True"


def test_invert_explicit_periods(capsys):
    code, out, _ = run(
        capsys,
        "invert", "--variety", "V10", "--periods", "1,1,1,1,1", "--deg", "1",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["entries"]["a01"] == "4"


def test_invert_degenerate_periods_is_math_error(capsys):
    code, _, err = run(
        capsys, "invert", "--variety", "V10", "--periods", "0,0,0,0,0"
    )
    assert code == 3
    assert "solver" in err


@pytest.mark.parametrize("bad", ["1,2", "1,2,x,4,5", "1,2,3,4,1/0"])
def test_invert_malformed_periods_is_input_error(capsys, bad):
    code, _, err = run(capsys, "invert", "--variety", "V10", "--periods", bad)
    assert code == 2
    assert "error" in err


def test_d3_json(capsys):
    code, out, _ = run(capsys, "d3", "--variety", "V10", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 3
    assert payload["indicial"] == ["0", "0", "0", "1"]
    assert payload["solution"][2] == "78"
    assert payload["residue_vanishes"] is True


def test_d3_shifted(capsys):
    code, out, _ = run(
        capsys, "d3", "--variety", "V14", "--lambda", "4", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["lambda"] == "4"
    assert payload["residue_vanishes"] is True


@pytest.mark.parametrize("bad", ["abc", "1/0"])
def test_d3_bad_lambda(capsys, bad):
    code, _, err = run(capsys, "d3", "--variety", "V10", "--lambda", bad)
    assert code == 2
    assert "error" in err


NOT_PLAIN_RATIONALS = ["1e5", "1_000", "1.5", "1e-6000000"]


@pytest.mark.parametrize("bad", NOT_PLAIN_RATIONALS)
def test_d3_lambda_takes_only_plain_rationals(capsys, bad):
    code, out, err = run(capsys, "d3", "--variety", "V10", "--lambda", bad)
    assert code == 2
    assert out == ""
    assert err == (
        f"error: stage config: ConfigError: bad --lambda: {bad!r} is not of the form P or P/Q\n"
    )


@pytest.mark.parametrize("bad", NOT_PLAIN_RATIONALS)
def test_periods_take_only_plain_rationals(capsys, bad):
    code, out, err = run(capsys, "invert", "--variety", "V10", "--periods", f"1,1,{bad},1,1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: stage config: ConfigError: bad rational in --periods: ")


NOT_PLAIN_INTEGERS = ["1_0", " 1_0 ", "1e1", "1.0", "2/2", "0x7", "", "abc"]


@pytest.mark.parametrize("bad", NOT_PLAIN_INTEGERS)
def test_order_takes_only_plain_integers(capsys, bad):
    code, out, err = run(capsys, "iseries", "--variety", "V10", "--order", bad)
    assert code == 2
    assert out == ""
    assert err == f"error: stage config: ConfigError: bad --order: {bad!r} is not of the form P\n"


@pytest.mark.parametrize("bad", NOT_PLAIN_INTEGERS)
def test_deg_takes_only_plain_integers(capsys, bad):
    code, out, err = run(
        capsys, "invert", "--variety", "V10", "--periods", "1,1,1,1,1", "--deg", bad
    )
    assert code == 2
    assert out == ""
    assert err == f"error: stage config: ConfigError: bad --deg: {bad!r} is not of the form P\n"


def test_rationals_may_carry_sign_and_surrounding_whitespace(capsys):
    assert run(capsys, "d3", "--variety", "V14", "--lambda", " +4 ") == run(
        capsys, "d3", "--variety", "V14", "--lambda", "4"
    )
    spaced = run(capsys, "invert", "--variety", "V10", "--periods", " 1, +1,1 ,1,2/2", "--deg", "1")
    assert spaced == run(capsys, "invert", "--variety", "V10", "--periods", "1,1,1,1,1", "--deg", "1")
    assert run(capsys, "iseries", "--variety", "V10", "--order", " +3 ") == run(
        capsys, "iseries", "--variety", "V10", "--order", "3"
    )
    spaced = run(capsys, "invert", "--variety", "V10", "--periods", "1,1,1,1,1", "--deg", " +1 ")
    assert spaced == run(capsys, "invert", "--variety", "V10", "--periods", "1,1,1,1,1", "--deg", "1")


@pytest.mark.parametrize("deg", ["0", "-5"])
def test_invert_degree_must_be_positive(capsys, deg):
    code, out, err = run(
        capsys, "invert", "--variety", "V10", "--periods", "1,1,1,1,1", "--deg", deg
    )
    assert code == 2
    assert out == ""
    assert err == "error: stage config: ConfigError: --deg must be positive\n"


def test_oversize_residue_sum_is_refused_before_it_runs(capsys, tmp_path, monkeypatch):
    def spy(*args):
        raise AssertionError("hv_iseries ran for a refused job")

    monkeypatch.setattr(pipeline, "hv_iseries", spy)
    config = write_config(
        tmp_path, {"ambient": {"type": "grassmannian", "r": 12, "n": 24}, "degrees": [1]}
    )
    code, out, err = run(capsys, "iseries", "--variety", config, "--order", "5")
    assert code == 2
    assert out == ""
    assert err == (
        "error: stage config: ConfigError: residue-sum work for G(12,24) at "
        f"order 5 exceeds the limit MAX_RESIDUE_WORK = {pipeline.MAX_RESIDUE_WORK}\n"
    )


@pytest.mark.parametrize("r", [3000, 10**5, 10**6])
def test_huge_grassmannians_are_refused_by_the_digit_limit(capsys, tmp_path, monkeypatch, r):
    # G(3000,6000) used to exit as `stage input` while formatting a work
    # figure past the string limit; G(10^6,2*10^6) took 124 s to get there
    def spy(*args):
        raise AssertionError("hv_iseries ran for a refused job")

    monkeypatch.setattr(pipeline, "hv_iseries", spy)
    config = write_config(
        tmp_path, {"ambient": {"type": "grassmannian", "r": r, "n": 2 * r}, "degrees": [1]}
    )
    code, out, err = run(capsys, "iseries", "--variety", config, "--order", "5")
    assert (code, out) == (2, "")
    limit = sys.get_int_max_str_digits()
    assert err.startswith(f"error: stage config: ConfigError: coefficients of G({r},{2 * r}) ")
    assert err.endswith(f" digits, past the limit sys.get_int_max_str_digits() = {limit}\n")


def test_coefficients_past_the_string_limit_are_refused_before_they_run(
    capsys, tmp_path, monkeypatch
):
    def spy(*args):
        raise AssertionError("hv_iseries ran for a refused job")

    monkeypatch.setattr(pipeline, "hv_iseries", spy)
    config = write_config(
        tmp_path, {"ambient": {"type": "grassmannian", "r": 2, "n": 30000}, "degrees": [1]}
    )
    code, out, err = run(capsys, "iseries", "--variety", config, "--order", "13")
    assert (code, out) == (2, "")
    limit = sys.get_int_max_str_digits()
    assert err == (
        "error: stage config: ConfigError: coefficients of G(2,30000) at order 13 need "
        f"about 260426 digits, past the limit sys.get_int_max_str_digits() = {limit}\n"
    )


def test_variety_series_past_the_string_limit_is_refused_but_its_ambient_prints(
    capsys, tmp_path
):
    config = write_config(tmp_path, {"ambient": {"type": "projective", "n": 99}, "degrees": [99]})
    code, out, err = run(capsys, "iseries", "--variety", config, "--order", "30")
    assert (code, err) == (0, "")
    code, out, err = run(capsys, "lefschetz", "--variety", config, "--order", "30")
    assert (code, out) == (2, "")
    limit = sys.get_int_max_str_digits()
    assert err == (
        "error: stage lefschetz: ConfigError: coefficients of the variety series at order 30 "
        f"need about 13253 digits, past the limit sys.get_int_max_str_digits() = {limit}\n"
    )


@pytest.mark.parametrize(
    ("command", "payload", "message"),
    [
        (
            "iseries",
            {"ambient": {"type": "projective", "n": 10**8}, "degrees": [1]},
            "stage config: ConfigError: coefficients of G(1,100000001) at order 5 need "
            "about 138021136 digits",
        ),
        (
            "report",
            {"ambient": {"type": "projective", "n": 30000}, "degrees": [30000]},
            "stage config: ConfigError: coefficients of G(1,30001) at order 5 need "
            "about 41414 digits",
        ),
        (
            "lefschetz",
            {"ambient": {"type": "projective", "n": 3000}, "degrees": [2999]},
            "stage lefschetz: ConfigError: coefficients of the variety series at order 5 "
            "need about 43733 digits",
        ),
    ],
    ids=["ambient-iseries", "ambient-report", "variety"],
)
def test_series_checks_size_the_order_the_stages_compute(
    capsys, tmp_path, monkeypatch, command, payload, message
):
    # at order 1 the series stages still run through q^4: P^(10^8) ran past
    # a 60-s timeout, and the degree-30000 report took 28 s to refuse
    def spy(*args):
        raise AssertionError("a series stage ran for a refused job")

    monkeypatch.setattr(pipeline, "quantum_lefschetz", spy)
    if command != "lefschetz":  # that job's ambient series is admitted and computes
        monkeypatch.setattr(pipeline, "hv_iseries", spy)
    config = write_config(tmp_path, payload)
    code, out, err = run(capsys, command, "--variety", config, "--order", "1")
    assert (code, out) == (2, "")
    limit = sys.get_int_max_str_digits()
    assert err == f"error: {message}, past the limit sys.get_int_max_str_digits() = {limit}\n"


def test_lefschetz_and_report_name_the_same_refusal(capsys, tmp_path):
    # alpha = 3000! is too long to print; `lefschetz` used to format it
    # before the variety stage's digit check ran, and exit as `stage output`
    config = write_config(tmp_path, {"ambient": {"type": "projective", "n": 3000}, "degrees": [3000]})
    outcomes = [run(capsys, cmd, "--variety", config, "--order", "5") for cmd in ("lefschetz", "report")]
    assert outcomes[0] == outcomes[1]
    code, out, err = outcomes[0]
    assert (code, out) == (2, "")
    limit = sys.get_int_max_str_digits()
    assert err == (
        "error: stage lefschetz: ConfigError: coefficients of the variety series at order 5 "
        f"need about 80270 digits, past the limit sys.get_int_max_str_digits() = {limit}\n"
    )


def test_an_ambient_dimension_past_the_float_range_is_a_config_error(capsys, tmp_path):
    # sizing the job used to multiply n by a float: exit 3 with an OverflowError
    n = 10**400
    config = write_config(tmp_path, {"ambient": {"type": "projective", "n": n}, "degrees": [1]})
    code, out, err = run(capsys, "iseries", "--variety", config, "--order", "2")
    assert (code, out) == (2, "")
    limit = sys.get_int_max_str_digits()
    assert err.startswith(
        f"error: stage config: ConfigError: coefficients of G(1,{n + 1}) at order 5 need about "
    )
    assert err.endswith(f" digits, past the limit sys.get_int_max_str_digits() = {limit}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["d3", "--variety", "V10", "--lambda", "9" * 1500, "--order", "7"],
        [
            "invert", "--variety", "V10", "--deg", "1",
            "--periods", ",".join(str(7 * 10**1199 + k) for k in range(1, 6)),
        ],
    ],
    ids=["d3", "invert"],
)
def test_a_result_too_long_to_print_fails_as_stage_output(capsys, argv):
    # the inputs parse and the stages compute; only the text of the result
    # passes the interpreter's limit on integer string conversion
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    limit = sys.get_int_max_str_digits()
    assert err.startswith(f"error: stage output: ValueError: Exceeds the limit ({limit} digits)")


def test_order_past_the_limit_is_refused(capsys):
    order = str(pipeline.MAX_ORDER + 1)
    code, out, err = run(capsys, "report", "--variety", "V10", "--order", order)
    assert code == 2
    assert out == ""
    assert err == (
        f"error: stage config: ConfigError: order {order} exceeds the limit "
        f"MAX_ORDER = {pipeline.MAX_ORDER}\n"
    )


@pytest.mark.parametrize("variety", ["V10", "V14"])
def test_report_runs_at_the_order_limit(capsys, variety):
    argv = ["report", "--variety", variety, "--order", str(pipeline.MAX_ORDER), "--format", "json"]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    table = json.loads(out)["modularity"]
    assert table["order"] == 30
    # the lambda = 0 solution is the factorial transform of the series through t^29
    assert [
        r["first_mismatch"]
        for r in table["rows"]
        if (r["lambda"], r["candidate"]) == ("0", "factorial_transform")
    ] == [None]


def test_modularity_json(capsys):
    code, out, _ = run(capsys, "modularity", "--variety", "V10", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["level"] == 5
    assert len(payload["rows"]) == 12
    matches = [
        (r["lambda"], r["candidate"])
        for r in payload["rows"]
        if r["first_mismatch"] is None
    ]
    assert ("0", "factorial_transform") in matches


def test_modularity_text(capsys):
    code, out, _ = run(capsys, "modularity", "--variety", "V14")
    assert code == 0
    assert "level N = 7" in out
    assert "agrees to order" in out


def test_report_is_byte_identical(capsys):
    code, first, _ = run(capsys, "report", "--variety", "V14", "--format", "json")
    assert code == 0
    _, second, _ = run(capsys, "report", "--variety", "V14", "--format", "json")
    assert first == second
    payload = json.loads(first)
    assert payload["verified"] is True


def test_unknown_variety_is_input_error(capsys):
    code, _, err = run(capsys, "matrix", "--variety", "V9")
    assert code == 2
    assert "error" in err


def test_non_integer_config_field_is_input_error(capsys, tmp_path):
    path = write_config(
        tmp_path, {"ambient": {"type": "grassmannian", "r": True, "n": 5}, "degrees": [1, 1, 2]}
    )
    code, out, err = run(capsys, "matrix", "--variety", path)
    assert code == 2
    assert out == ""
    assert err == (
        "error: stage config: ConfigError: field 'ambient.r' must be an integer, got True\n"
    )


def test_config_nested_past_the_recursion_limit_is_a_config_error(capsys, tmp_path):
    # used to escape load_config as a RecursionError: a traceback and exit 1
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    code, out, err = run(capsys, "matrix", "--variety", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: stage config: ConfigError: cannot read config {path}: ")


def test_config_that_is_not_utf8_is_a_config_error(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"name": "\xe9"}')
    code, out, err = run(capsys, "matrix", "--variety", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: stage config: ConfigError: cannot read config {path}: ")
    assert "UnicodeDecodeError" not in err


def test_config_integer_past_the_string_limit_is_a_config_error(capsys, tmp_path):
    # json.loads raises a plain ValueError for it: exit 2 as `stage input`
    path = tmp_path / "long.json"
    n = "9" * (sys.get_int_max_str_digits() + 1)
    path.write_text(f'{{"ambient": {{"type": "projective", "n": {n}}}, "degrees": [1]}}')
    code, out, err = run(capsys, "iseries", "--variety", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: stage config: ConfigError: cannot read config {path}: ")
    assert err.count("\n") == 1


def test_index_two_cubic_runs_end_to_end(capsys, tmp_path):
    # graded by -K = 2H, so its -K degree is 2^3 * 3 = 24
    config = write_config(
        tmp_path, {"ambient": {"type": "projective", "n": 4}, "degrees": [3]}
    )
    code, out, err = run(capsys, "matrix", "--variety", config, "--format", "json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["deg"] == 24
    assert payload["entries"] == {"a01": "24", "a11": "0", "a02": "0", "a12": "60", "a03": "576"}


def test_non_fano_model_is_input_error(capsys, tmp_path):
    config = write_config(
        tmp_path, {"ambient": {"type": "projective", "n": 4}, "degrees": [5]}
    )
    code, _, err = run(capsys, "matrix", "--variety", config)
    assert code == 2


def test_index_one_quartic_runs_end_to_end(capsys, tmp_path):
    config = write_config(
        tmp_path,
        {"name": "quartic", "ambient": {"type": "projective", "n": 4}, "degrees": [4]},
    )
    code, out, _ = run(capsys, "matrix", "--variety", config, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["entries"]["a01"] == "3888"
    assert payload["deg"] == 4


def test_invert_explicit_periods_and_degree_skip_the_matrix(capsys, tmp_path):
    # a fourfold has no counting matrix, and none is needed here
    fourfold = write_config(
        tmp_path, {"ambient": {"type": "projective", "n": 5}, "degrees": [5]}
    )
    explicit = ("--periods", "1,1,1,1,1", "--deg", "1", "--format", "json")
    code, out, _ = run(capsys, "invert", "--variety", fourfold, *explicit)
    assert code == 0
    assert out == run(capsys, "invert", "--variety", "V10", *explicit)[1]


@pytest.mark.parametrize(
    "cmd", ["iseries", "lefschetz", "matrix", "periods", "invert", "d3", "modularity", "report"]
)
def test_fourfold_runs_only_the_series_stages(capsys, tmp_path, cmd):
    config = write_config(
        tmp_path, {"ambient": {"type": "projective", "n": 5}, "degrees": [5]}
    )
    code, out, err = run(capsys, cmd, "--variety", config, "--order", "5")
    if cmd in ("iseries", "lefschetz"):
        assert (code, err) == (0, "")
        assert out
    else:
        assert (code, out) == (2, "")
        assert err == (
            "error: stage solver: ValueError: complete intersection has dimension 4, "
            "not 3; a counting matrix needs a threefold\n"
        )


PUBLIC_ERRORS = sorted(
    (
        obj
        for obj in (getattr(fanocount, name) for name in fanocount.__all__)
        if isinstance(obj, type) and issubclass(obj, Exception)
    ),
    key=lambda cls: cls.__name__,
)
STAGE_ERRORS = [cls for cls in PUBLIC_ERRORS if cls is not fanocount.StageError]


def test_all_lists_no_submodule():
    # the package imports bind its submodules beside the re-exported names;
    # only the names are public
    assert [n for n in fanocount.__all__ if isinstance(getattr(fanocount, n), ModuleType)] == []
    assert len(fanocount.__all__) == 55
    assert {"PipelineRun", "CountingMatrix", "hv_iseries", "serialize_report"} <= set(fanocount.__all__)


def test_public_errors_are_input_or_math_errors():
    # StageError only wraps the others, which each have one documented code
    assert all(issubclass(cls, (ValueError, ArithmeticError)) for cls in STAGE_ERRORS)


@pytest.mark.parametrize("error", STAGE_ERRORS, ids=lambda cls: cls.__name__)
def test_public_error_in_a_stage_maps_to_its_exit_code(monkeypatch, capsys, error):
    def fail(*args):
        raise error("injected")

    monkeypatch.setattr(pipeline, "ambient_series", fail)
    code, out, err = run(capsys, "iseries", "--variety", "V10")
    assert code == (2 if issubclass(error, ValueError) else 3)
    assert out == ""
    assert err == f"error: stage grassmann: {error.__name__}: injected\n"
