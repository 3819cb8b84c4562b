"""The experiment scripts and the benchmark tracer's bindings, in-process."""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load(relpath: str):
    path = ROOT / relpath
    spec = importlib.util.spec_from_file_location(path.stem, path)
    # registered first: dataclasses look their module up in sys.modules
    module = sys.modules[path.stem] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    # perfbench/tracer.py patches each (site, attribute) where fanocount binds
    # it; install raises AttributeError for a binding that is gone
    tracer = load("perfbench/tracer.py").Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()


def test_shift_scan_runs(capsys):
    load("scripts/shift_scan.py").main(["--span", "1", "--order", "6"])
    out = capsys.readouterr().out
    assert "V10: deg = 10, alpha = 6, level N = 5" in out
    assert "        6        agrees     differs@2  <- alpha" in out
    assert "        4        agrees     differs@2  <- alpha" in out


def test_shift_scan_output_is_pinned(capsys):
    # sha256 of the whole stdout, recorded before the series became integers
    # over one denominator: the twist, the transforms and the comparison the
    # script calls must leave every line unchanged
    load("scripts/shift_scan.py").main(["--span", "3", "--order", "9"])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "c1699b8e794b194530ef486c59e4198daff99aef7e375dd2ab58236aa57a615e"


def test_period_fiber_experiment_runs(capsys):
    load("scripts/period_fiber_experiment.py").main(["--samples", "5"])
    out = capsys.readouterr().out
    assert "samples:            5" in out
    assert "inversion refused, as it must be" in out


@pytest.mark.parametrize("value", ["0", "-3"])
@pytest.mark.parametrize(
    "script,option",
    [("scripts/period_fiber_experiment.py", "--samples"), ("scripts/shift_scan.py", "--order")],
)
def test_script_counts_below_one_are_usage_errors(script, option, value, capsys):
    # --samples 0 divided by zero in the timing line and a negative count
    # printed a negative time; --order 0 reached the pipeline's ConfigError
    with pytest.raises(SystemExit) as info:
        load(script).main([option, value])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert f"error: argument {option}: must be an integer >= 1, got {value}\n" in err
