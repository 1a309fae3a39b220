"""Randomized consistency suites and the naive rank oracle."""

import contextlib
import io
import itertools
import json
import random
import re

import pytest

import tanfam.selfcheck
from tanfam.cli import EXIT_CONTRADICTS, main
from tanfam.jets import MapGerm, SOURCE_VARS, TruncatedPoly
from tanfam.selfcheck import (
    DEFAULT_ORACLE_ORDER,
    DEFAULT_ORACLE_SAMPLES,
    DEFAULT_ROUNDS,
    SuiteResult,
    check_chain_rule,
    check_composition,
    check_leibniz,
    check_rank_oracle,
    check_ring_laws,
    naive_tangent_rank,
    random_jet,
    random_sparse_germ,
    run_all,
)
from tanfam.tangent import (
    KIND_FIBERED,
    KIND_FULL,
    build_extended_tangent_space,
)

ROUNDS = 200  # enough to exercise every path; the CLI runs the full default


def test_defaults():
    assert DEFAULT_ROUNDS == 1000
    assert DEFAULT_ORACLE_SAMPLES == 20
    assert DEFAULT_ORACLE_ORDER == 3


def test_random_jet_deterministic_and_vanishing():
    a = random_jet(random.Random(5), SOURCE_VARS, 8)
    b = random_jet(random.Random(5), SOURCE_VARS, 8)
    assert a == b
    for seed in range(30):
        jet = random_jet(random.Random(seed), SOURCE_VARS, 8, vanishing=True)
        assert jet.constant_term() == 0


def test_random_sparse_germ_shape():
    for seed in range(20):
        germ = random_sparse_germ(random.Random(seed), cap=4)
        assert germ.arity == 3
        total_terms = sum(len(component.terms()) for component in germ)
        assert 2 <= total_terms <= 3
        for component in germ:
            assert component.constant_term() == 0


def test_algebra_suites_pass():
    for check in (check_ring_laws, check_leibniz, check_chain_rule, check_composition):
        result = check(seed=0, rounds=ROUNDS)
        assert result.ok, result.failures
        assert result.rounds == ROUNDS
        assert result.elapsed >= 0.0


def test_rank_oracle_suite_passes():
    result = check_rank_oracle(seed=0, samples=10)
    assert result.ok, result.failures
    assert result.name == "rank-oracle"


def test_naive_rank_matches_builder_on_fixed_germ():
    cap = 4
    xi = TruncatedPoly.variable(SOURCE_VARS, "xi", cap)
    t = TruncatedPoly.variable(SOURCE_VARS, "t", cap)
    germ = MapGerm((xi + t, t * t, t * t * xi))
    for kind in (KIND_FIBERED, KIND_FULL):
        basis = build_extended_tangent_space(germ, order=3, kind=kind)
        assert naive_tangent_rank(germ, 3, kind) == basis.rank


def test_naive_rank_matches_builder_on_planar_germs():
    """Two slots, slot 1 of the fibered kind holding functions of x only:
    the swallowtail (xi, xi t + t^4) reads rank 54 under A-star and 55
    under A at order 6, and seeded sparse planar germs agree too."""
    cap = 7
    xi = TruncatedPoly.variable(SOURCE_VARS, "xi", cap)
    t = TruncatedPoly.variable(SOURCE_VARS, "t", cap)
    swallowtail = MapGerm((xi, xi * t + t**4))
    kinds = (KIND_FIBERED, KIND_FULL)
    ranks = {kind: naive_tangent_rank(swallowtail, 6, kind) for kind in kinds}
    assert ranks == {KIND_FIBERED: 54, KIND_FULL: 55}
    germs = [swallowtail]
    for seed in range(30):
        f1, f2, f3 = random_sparse_germ(random.Random(seed), 5, max_degree=4)
        germs.append(MapGerm((f1, f2 + f3)))
    for germ in germs:
        for kind in kinds:
            basis = build_extended_tangent_space(germ, order=min(6, germ.cap - 1), kind=kind)
            assert naive_tangent_rank(germ, basis.order, kind) == basis.rank, (germ, kind)


def test_rank_oracle_draws_planar_and_spatial_germs(monkeypatch):
    arities = []
    naive = tanfam.selfcheck.naive_tangent_rank

    def recording(germ, order, kind):
        arities.append(germ.arity)
        return naive(germ, order, kind)

    monkeypatch.setattr(tanfam.selfcheck, "naive_tangent_rank", recording)
    assert check_rank_oracle(seed=0, samples=10).ok
    assert set(arities) == {2, 3}


def test_suite_result_json_shape():
    result = check_ring_laws(seed=3, rounds=50)
    payload = result.to_json()
    assert payload["name"] == result.name
    assert payload["rounds"] == 50
    assert payload["seed"] == 3
    assert payload["ok"] is True
    assert payload["failures"] == []
    assert isinstance(payload["elapsed"], float)


def test_failures_are_recorded_and_bounded():
    # force failures by running a body that always raises through _run_suite's
    # public face: the cheapest handle is a SuiteResult built by hand
    result = SuiteResult(name="demo", rounds=3, seed=0, failures=("r0", "r1"), elapsed=0.0)
    assert not result.ok
    assert result.to_json()["ok"] is False
    assert result.to_json()["failures"] == ["r0", "r1"]


def _lopsided_add(monkeypatch):
    """f + g gives f + f: addition stops commuting."""
    add = TruncatedPoly.__add__
    monkeypatch.setattr(TruncatedPoly, "__add__", lambda self, other: add(self, self))


def _drifting_compose(monkeypatch):
    """Each composition is off by a multiple of t that grows call by call."""
    compose, calls = tanfam.selfcheck.compose, itertools.count(1)

    def drifting(g, components):
        out = compose(g, components)
        return out + next(calls) * TruncatedPoly.variable(SOURCE_VARS, "t", out.cap)

    monkeypatch.setattr(tanfam.selfcheck, "compose", drifting)


def _wrong_oracle(monkeypatch):
    monkeypatch.setattr(tanfam.selfcheck, "naive_tangent_rank", lambda germ, order, kind: -1)


@pytest.mark.parametrize(
    "check, fault, message",
    [
        (check_ring_laws, _lopsided_add, "addition not commutative for "),
        (check_leibniz, _lopsided_add, "Leibniz fails in d/d"),
        (check_chain_rule, _drifting_compose, "chain rule fails in d/d"),
        (check_composition, _drifting_compose, "truncation at "),
        (check_rank_oracle, _wrong_oracle, "rank mismatch for "),
    ],
)
def test_an_injected_fault_is_recorded_and_bounded(monkeypatch, check, fault, message):
    fault(monkeypatch)
    result = check(seed=0) if check is check_rank_oracle else check(seed=0, rounds=12)
    assert not result.ok
    assert len(result.failures) == 5
    for failure in result.failures:
        assert re.match(rf"round \d+: {re.escape(message)}", failure), failure


def test_selfcheck_command_reports_an_injected_fault(monkeypatch):
    _wrong_oracle(monkeypatch)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["selfcheck", "--rounds", "2", "--samples", "7"])
    assert code == EXIT_CONTRADICTS
    payload = json.loads(out.getvalue())
    assert payload["ok"] is False
    results = {result["name"]: result for result in payload["results"]}
    oracle = results.pop("rank-oracle")
    assert oracle["ok"] is False and len(oracle["failures"]) == 5
    assert all(failure.startswith("round ") for failure in oracle["failures"])
    assert all(result["ok"] for result in results.values())


def test_run_all_aggregates_five_suites():
    results = run_all(seed=0, rounds=50, samples=5)
    assert [r.name for r in results] == [
        "ring-laws",
        "leibniz",
        "chain-rule",
        "composition",
        "rank-oracle",
    ]
    assert all(r.ok for r in results)
