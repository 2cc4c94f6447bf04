"""Tests of the benchmark's own machinery: self time, checks, config generation."""

import json
import os

import pytest

from bench_checks import Checker, certificate_problems
from bench_trace import Span, Tracer, call_counts, install, self_times
from bench_workloads import WORKLOADS, Command, make_workload


def test_self_time_of_nested_spans():
    spans = [
        Span(0, -1, "cli", 0.0, 10.0),
        Span(1, 0, "a", 1.0, 4.0),
        Span(2, 1, "b", 2.0, 3.0),
        Span(3, 0, "c", 5.0, 9.0),
        Span(4, 3, "b", 6.0, 6.5),
    ]
    own = self_times(spans)
    assert own == pytest.approx({"cli": 3.0, "a": 2.0, "b": 1.5, "c": 3.5})
    assert sum(own.values()) == pytest.approx(10.0)
    assert call_counts(spans) == {"cli": 1, "a": 1, "b": 2, "c": 1}


def test_self_time_shares_overlapping_worker_spans():
    # two worker threads under one command overlap on [2, 4]
    spans = [
        Span(0, -1, "cli", 0.0, 6.0),
        Span(1, 0, "a", 1.0, 4.0),
        Span(2, 0, "b", 2.0, 5.0),
    ]
    own = self_times(spans)
    assert own == pytest.approx({"cli": 2.0, "a": 2.0, "b": 2.0})
    assert sum(own.values()) == pytest.approx(6.0)


def _heat5(tmp_path):
    cmd = Command("synthesize_heat5", "synthesize", {
        "plant": {"type": "heat", "b": 5.0, "f": {"kind": "constant", "value": 1.0},
                  "N_max": 16}})
    cmd.write_config(str(tmp_path))
    return cmd


def test_tracer_counts_calls_inside_modules(tmp_path):
    import modalstab.cli
    import modalstab.synthesis

    cmd = _heat5(tmp_path)
    original = modalstab.synthesis.care_stabilizing_solution
    tracer = Tracer()
    code, wall = tracer.command(modalstab.cli.main, cmd.argv(str(tmp_path)))
    assert code == 0 and wall > 0.0
    counts = call_counts(tracer.spans)
    # two Riccati designs plus two residual recomputations, all inside synthesis
    assert counts["synthesis.care_stabilizing_solution"] == 4
    assert counts["synthesis.synthesize_controller"] == 1
    assert modalstab.synthesis.care_stabilizing_solution is original
    assert modalstab.cli.synthesize_controller is modalstab.synthesis.synthesize_controller
    restore = install(tracer)
    restore()
    assert modalstab.synthesis.care_stabilizing_solution is original


def test_check_flags_doctored_certificate(tmp_path):
    import modalstab.cli

    cmd = _heat5(tmp_path)
    assert modalstab.cli.main(cmd.argv(str(tmp_path))) == 0
    checker = Checker(str(tmp_path / ".." / ".."))  if False else None  # noqa: F841
    from run import SRC

    checker = Checker(f"{SRC}/modalstab/schemas")
    out_dir = tmp_path / cmd.tag
    assert checker.check(cmd, 0, str(out_dir)) == []

    path = out_dir / "certificate.json"
    cert = json.loads(path.read_text())
    cert.update(gain_R=2.0, gain_tail=0.5, product=1.0, verdict="Certified")
    path.write_text(json.dumps(cert))
    problems = checker.check(cmd, 0, str(out_dir))
    assert any("product 1.0 >= 1" in p for p in problems)
    assert certificate_problems(cert, 0) == ["Certified with product 1.0 >= 1"]
    cert["product"] = 0.5
    assert certificate_problems(cert, 0) == ["product 0.5 != gain_R * gain_tail = 1.0"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_configs_follow_the_seed(name):
    def configs(seed):
        w = make_workload(name, seed)
        return [(c.tag, c.command, c.config) for c in w.prepare + w.passes + (w.cold,)]

    assert configs(7) == configs(7)
    assert configs(7) != configs(8)


def test_tail_is_never_below_the_median():
    from run import _tail

    assert _tail([4.0, 3.0, 5.0, 9.0]) == (50, 4.5)
    assert _tail([float(i) for i in range(1, 21)]) == (50, 10.5)
    p, value = _tail([float(i) for i in range(1, 101)])
    assert p == 90 and value == pytest.approx(90.1)
