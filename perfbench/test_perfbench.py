"""Self-tests of the benchmark's own logic.

    python3 -m pytest -q perfbench
"""

import itertools
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import probes  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from rwave import cli, expr, geometry  # noqa: E402


def test_tail_percentile_needs_ten_samples_beyond():
    assert stats.min_samples_for(95) == 200
    assert stats.tail_percentile(list(range(199)), 95) is None
    values = list(range(200))[::-1]
    assert stats.tail_percentile(values, 95) == 189   # 10 values above it
    assert stats.tail_percentile(list(range(11)), 0) == 0
    assert stats.tail_percentile(list(range(10)), 0) is None
    assert stats.tail_percentile([], 95) is None


def _stream(seed, n=200):
    return list(itertools.islice(workloads.verdict_requests(seed), n))


def test_same_seed_same_verdict_stream():
    assert _stream(5) == _stream(5)
    assert _stream(5) != _stream(6)
    kinds = {(r["kind"], bool(r.get("perturb"))) for r in _stream(5)}
    assert kinds == {("pair", False), ("pair", True), ("homogenize", False)}


def test_every_verdict_request_kind_meets_its_expectation():
    w = workloads.VerdictsWorkload(11)
    seen = set()
    for i in range(60):
        req = w.request(i)
        kind = (req["kind"], bool(req.get("perturb")))
        if kind in seen:
            continue
        seen.add(kind)
        outcome = w.check(i, w.run(i, "test"))
        assert outcome.ok, outcome.detail
    assert len(seen) == 3


def _targets():
    """Every place a traced function lives, with the object found there."""
    places = {}
    for module_name, qualname, _, _ in probes.TARGETS:
        owner, attr = probes._resolve(module_name, qualname)
        original = vars(owner)[attr]
        holders = ([(owner, attr)] if "." in qualname
                   else probes._holders(module_name, original))
        for holder, name in holders:
            places[(id(holder), name)] = (holder, name, original)
    return places


def test_wrappers_reach_importing_modules_and_are_restored():
    before = _targets()
    original_is_zero = expr.is_zero
    tracer = probes.Tracer()
    with tracer:
        assert probes._is_wrapper(cli.recover_decomposition)
        assert probes._is_wrapper(geometry.is_zero)
        assert probes._is_wrapper(expr.is_zero)
        box = expr.Box.from_dict({"x": (0.0, 1.0)})
        geometry.is_zero(expr.parse("x - x", ["x"]), box, rng=0)
    assert tracer.calls["expr.is_zero"] == 1
    assert expr.is_zero is original_is_zero
    assert probes.installed_wrappers() == []
    for holder, name, original in before.values():
        assert vars(holder)[name] is original, name


def test_wrappers_are_restored_when_the_traced_code_raises():
    before = _targets()
    with pytest.raises(ZeroDivisionError):
        with probes.Tracer():
            1 / 0
    assert probes.installed_wrappers() == []
    for holder, name, original in before.values():
        assert vars(holder)[name] is original, name
