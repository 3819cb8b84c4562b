"""The output guard: the oracles agree with fanocount at the seed, and a
corrupted digest or oracle value makes the item fail and failed_frac rise."""

import copy
from fractions import Fraction

import pytest

import oracles
import worker
import workloads


def loop_stats(items) -> dict:
    """A zero-second loop: it still runs one batch of items."""
    loop = worker.timed_loop(items, seconds=0, trace=False)
    return worker.end_to_end("catalog", loop)


@pytest.fixture(scope="module")
def verify_stdout(tmp_path_factory) -> str:
    item = workloads.catalog_items(1, tmp_path_factory.mktemp("w"))[0]
    status, stdout = item.run()
    assert status == 0
    return stdout


def test_closed_form_matches_readme_constants():
    assert oracles.g2n_constant_term(5, 1) == 3
    assert oracles.g2n_constant_term(5, 2) == Fraction(19, 32)
    assert oracles.g2n_constant_term(6, 3) == Fraction(95, 5832)
    assert oracles.g2n_constant_term(6, 0) == 1


def test_seed_outputs_pass_every_check(verify_stdout):
    assert oracles.check_digest("verify", verify_stdout) == []
    assert oracles.check_verify(verify_stdout) == []


def test_corrupted_digest_fails_the_item(verify_stdout):
    digests = dict(oracles.DIGESTS, verify="0" * 64)
    assert oracles.check_digest("verify", verify_stdout, digests)


def test_corrupted_oracle_value_fails_the_item(verify_stdout):
    models = copy.deepcopy(oracles.README_MODELS)
    rows = [list(r) for r in models["V10"]["rows"]]
    rows[0][1] = 157  # a01
    models["V10"]["rows"] = tuple(tuple(r) for r in rows)
    fails = oracles.check_verify(verify_stdout, models)
    assert any("V10:matrix.a01" in f for f in fails)


def test_failed_frac_rises_under_corruption(tmp_path):
    clean = loop_stats(workloads.catalog_items(1, tmp_path))
    assert clean["attempted"] >= 1 and clean["failed"] == 0 and clean["failed_frac"] == 0

    digests = dict(oracles.DIGESTS, verify="0" * 64)
    bad_digest = loop_stats(workloads.catalog_items(1, tmp_path, digests=digests))
    assert bad_digest["attempted"] >= 1 and bad_digest["failed"] == bad_digest["attempted"]
    assert bad_digest["failed_frac"] == 1.0
    assert "item_p50_ms" not in bad_digest  # a failed item is never timed as a success

    models = copy.deepcopy(oracles.README_MODELS)
    models["V14"]["alpha"] = 5
    bad_oracle = loop_stats(workloads.catalog_items(1, tmp_path, models=models))
    assert bad_oracle["failed_frac"] == 1.0


def test_inversion_round_trip_check_catches_a_wrong_matrix(tmp_path):
    items = workloads.inversion_items(3, tmp_path)
    kinds = {item.kind for item in items}
    assert kinds == {"matrix", "vector", "degenerate"}
    for item in items[:40]:
        assert item.check(item.run()) == []
    matrix_item = next(item for item in items if item.kind == "matrix")
    periods, got = matrix_item.run()
    wrong = type(got)(got.deg, got.a01 + 1, got.a11, got.a02, got.a12, got.a03)
    assert matrix_item.check((periods, wrong))
    degenerate = next(item for item in items if item.kind == "degenerate")
    periods, exc = degenerate.run()
    assert degenerate.check((periods, None))


def test_degenerate_family_reproduces_the_listed_members():
    from fanocount import solver

    F = Fraction
    listed = [
        (F(0), F(400, 11), F(256)),
        (F(1), F(279, 11), F(172)),
        (F(7, 3), F(1367, 99), F(60)),
    ]
    for t, a12, a03 in listed:
        m = workloads.degenerate_member(t, solver)
        assert (m.a12, m.a03) == (a12, a03)
