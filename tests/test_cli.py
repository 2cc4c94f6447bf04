import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from modalstab import (DecayEnvelope, StateSpaceSystem, TailModel, certify_small_gain, cli,
                       decay_envelope, gain_strong, gain_weak, partition_spectrum, plants,
                       reduced_R_system, select_truncation, synthesize_controller, truncate)
from modalstab.cli import build_plant, main
from modalstab.errors import (BetaExceedsDecay, CertificateNotFound, NotHurwitz,
                              NotReachable, UnstableModeDiscarded)
from modalstab.fileio import (read_json, validate_document, write_json_atomic,
                              write_sweep_csv)
from modalstab.gains import beta_grid
from modalstab.plants import SourceProfile, build_heat_boundary, search_lift_parameter
from modalstab.synthesis import (check_stabilizable, matches_observer_structure,
                                 observer_controller)

GEOMETRIC = [1.0 / (k + 1) ** 2 for k in range(17)]

HEAT = {"type": "heat", "b": 5.0,
        "f": {"kind": "coefficients", "values": GEOMETRIC}, "N_max": 16}
WAVE = {"type": "wave", "b": 3.0, "kappa": 1.0, "f": {"kind": "constant", "value": 1.0},
        "N_max": 24}
# Flat coefficients leave a tail input norm sqrt(30) no truncation can shrink.
HEAVY_TAIL = {"type": "heat", "b": 5.0,
              "f": {"kind": "coefficients", "values": [1.0] * 40}, "N_max": 9}


def run(tmp_path, command, cfg, tag="out", extra=()):
    cfg_path = tmp_path / f"cfg_{command}_{tag}.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / tag
    code = main([command, "--config", str(cfg_path), "--out", str(out), *extra])
    return code, out


def test_analyze_heat_document(tmp_path):
    code, out = run(tmp_path, "analyze", {"plant": HEAT})
    assert code == 0
    doc = read_json(str(out / "analysis.json"))
    assert doc["verdict"]["pass"] is True
    assert doc["spectrum"]["unstable_labels"] == [0]
    assert doc["verdict"]["finite_unstable_part"] is True
    mode0 = doc["modes"][0]
    assert mode0["label"] == 0 and mode0["stabilizable"] and mode0["detectable"]


def test_analyze_is_byte_deterministic(tmp_path):
    _, out1 = run(tmp_path, "analyze", {"plant": HEAT}, tag="a")
    _, out2 = run(tmp_path, "analyze", {"plant": HEAT}, tag="b")
    assert (out1 / "analysis.json").read_bytes() == (out2 / "analysis.json").read_bytes()


def test_print_config_echoes_defaults(tmp_path, capsys):
    code, _ = run(tmp_path, "analyze", {"plant": HEAT}, extra=("--print-config",))
    assert code == 0
    stdout = capsys.readouterr().out
    # The resolved config comes first; a status line may follow it.
    merged = json.loads(stdout[:stdout.rindex("}") + 1])
    assert merged["epsilon"] == 0.1 and merged["margin_fraction"] == 0.5


def test_synthesize_certify_simulate_round_trip(tmp_path):
    code, out = run(tmp_path, "synthesize", {"plant": HEAT}, tag="syn")
    assert code == 0
    ctrl_doc = read_json(str(out / "controller.json"), "controller")
    cert_doc = read_json(str(out / "certificate.json"), "certificate")
    assert cert_doc["verdict"] == "Certified"
    assert cert_doc["product"] < 1.0
    assert ctrl_doc["dims"]["inputs"] == 1 and ctrl_doc["dims"]["outputs"] == 1

    ctrl_path = str(out / "controller.json")
    code2, out2 = run(tmp_path, "certify",
                      {"plant": HEAT, "controller_file": ctrl_path}, tag="cert")
    assert code2 == 0
    # Round trip through the document is lossless, so the verdict reproduces bitwise.
    assert (out / "certificate.json").read_bytes() == \
        (out2 / "certificate.json").read_bytes()

    code3, out3 = run(tmp_path, "simulate",
                      {"plant": HEAT, "controller_file": ctrl_path,
                       "horizon": 6.0, "dt": 0.02}, tag="sim")
    assert code3 == 0
    summary = read_json(str(out3 / "summary.json"))
    assert summary["certificate_verdict"] == "Certified"
    assert summary["spectral_abscissa"] < 0.0
    assert summary["decay_rate"] == pytest.approx(-summary["spectral_abscissa"],
                                                  rel=0.25)
    assert summary["final_norm"] < 1.0
    lines = (out3 / "trajectory.csv").read_text().strip().split("\n")
    n, q = summary["plant_dim"], summary["controller_dim"]
    assert lines[0] == ",".join(
        ["t"] + [f"x_{i+1}" for i in range(n)] + [f"w_{i+1}" for i in range(q)]
        + ["u_1", "y_1"])
    assert len(lines) == 2 + int(round(6.0 / 0.02))


_NO_SCIPY_SCRIPT = """
import json, sys
from modalstab.cli import main
plant = json.loads(sys.argv[2])
for command, cfg in (("synthesize", {"plant": plant}),
                     ("certify", {"plant": plant,
                                  "controller_file": sys.argv[1] + "/syn/controller.json"})):
    path = f"{sys.argv[1]}/{command}.json"
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    assert main([command, "--config", path, "--out", sys.argv[1] + "/syn"]) == 0
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_commands_run_without_scipy(tmp_path):
    import modalstab

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(modalstab.__file__)))
    done = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT, str(tmp_path), json.dumps(HEAT)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_simulate_seeded_random_x0_reproduces(tmp_path):
    _, out = run(tmp_path, "synthesize", {"plant": HEAT}, tag="syn")
    ctrl = str(out / "controller.json")
    cfg = {"plant": HEAT, "controller_file": ctrl, "x0": "random", "seed": 7,
           "horizon": 2.0, "dt": 0.1}
    code1, o1 = run(tmp_path, "simulate", cfg, tag="s1")
    code2, o2 = run(tmp_path, "simulate", cfg, tag="s2")
    assert code1 == 0 and code2 == 0
    assert (o1 / "trajectory.csv").read_bytes() == (o2 / "trajectory.csv").read_bytes()


def test_controller_with_infinite_design_rates_round_trips(tmp_path):
    # b = -3 leaves no unstable block, so both Riccati design rates are infinite.
    plant = {"type": "heat", "b": -3.0, "f": {"kind": "constant", "value": 1.0}}
    code, out = run(tmp_path, "synthesize", {"plant": plant}, tag="syn")
    assert code == 0
    design = read_json(str(out / "controller.json"), "controller")["design"]
    assert design["feedback_rate"] == "inf" and design["observer_rate"] == "inf"
    ctrl = str(out / "controller.json")
    code, _ = run(tmp_path, "certify", {"plant": plant, "controller_file": ctrl}, tag="cert")
    assert code == 0
    code, _ = run(tmp_path, "simulate", {"plant": plant, "controller_file": ctrl,
                                         "horizon": 1.0, "dt": 0.1}, tag="sim")
    assert code == 0


def test_simulate_rejects_wrong_x0_length(tmp_path):
    _, out = run(tmp_path, "synthesize", {"plant": HEAT}, tag="syn")
    cfg = {"plant": HEAT, "controller_file": str(out / "controller.json"),
           "x0": [1.0, 2.0], "N": 6, "horizon": 2.0, "dt": 0.1}
    code, _ = run(tmp_path, "simulate", cfg, tag="bad")
    assert code == 2


@pytest.mark.parametrize("b, n_max", [(5.0, 64), (math.pi ** 2, 8), (-1.0, 3),
                                      (5.0, 1), (42.0, 2)])
def test_boundary_plant_shares_one_far_table(b, n_max):
    # The CLI's search and build both work at N_max and call the same pure
    # far-sum function, plants._lift_q_sums, so its plant equals standalone
    # calls at that N_max, also at the smallest N_max with a stable tail
    # (5.0/1, 42.0/2).
    doc = {"type": "heat_boundary", "b": b, "f": {"kind": "constant", "value": 1.1},
           "N_max": n_max}
    sys_, data = build_plant(doc)
    f = SourceProfile.constant(1.1)
    a = search_lift_parameter(b, f, N_max=n_max)
    ref_sys, ref = build_heat_boundary(b, f, a, n_max)
    assert data.a == a
    assert data.u_output == ref.u_output
    assert data.series_remainder == ref.series_remainder
    assert sys_.tail.input_norm == ref_sys.tail.input_norm
    assert sys_.tail.output_graph_norm == ref_sys.tail.output_graph_norm


def test_boundary_command_evaluates_far_profile_on_summed_range(tmp_path, monkeypatch):
    # The far series evaluates f on at most TAIL_SUMMED_TERMS modes past N_max,
    # once for the search and once for the build; a constant profile has
    # f_k = 0 there, so it evaluates none.
    n_max, far_calls = 8, []
    inner = plants._raw_cos_inner

    def counting(profile, ks):
        if max(ks, default=0.0) > n_max:
            far_calls.append((profile.kind, len(ks)))
        return inner(profile, ks)

    monkeypatch.setattr(plants, "_raw_cos_inner", counting)
    for tag, f in (("constant", {"kind": "constant", "value": 1.2}),
                   ("indicator", {"kind": "indicator", "xi1": 0.1, "xi2": 0.6})):
        cfg = {"plant": {"type": "heat_boundary", "b": 5.0, "f": f, "N_max": n_max}}
        code, _ = run(tmp_path, "analyze", cfg, tag=tag)
        assert code == 0
    assert [kind for kind, _ in far_calls] == ["indicator", "indicator"]
    assert all(count <= plants.TAIL_SUMMED_TERMS for _, count in far_calls)


# The synthesize and sweep commands as they were before the controller design
# moved out of the candidate loop: every truncation order N gets its own dense
# truncation, tail sum, Riccati design, reduced loop, decay envelope and
# per-beta certificates.
def _reference_truncate(sys_, N):
    kept, discarded = sys_.blocks[:N], sys_.blocks[N:]
    for blk in discarded:
        if blk.max_real() >= 0.0:
            raise UnstableModeDiscarded(
                f"block {blk.label} has eigenvalue real part {blk.max_real():g} >= 0")
    dense = StateSpaceSystem(block_diag(*[blk.block_matrix for blk in kept]),
                             np.vstack([blk.input_row for blk in kept]),
                             np.hstack([blk.output_col for blk in kept]))
    tail = sys_.tail
    input_sq, output_sq = tail.input_norm ** 2, tail.output_graph_norm ** 2
    alpha, amp = tail.decay_alpha, tail.amplitude_a
    for blk in discarded:
        input_sq += float(np.linalg.norm(blk.input_row)) ** 2
        c_norm = float(np.linalg.norm(blk.output_col, 2))
        output_sq += (c_norm / (1.0 + blk.min_singular_value())) ** 2
        alpha = min(alpha, -blk.max_real())
        amp = max(amp, blk.eigenvector_condition())
    return dense, TailModel(alpha, float(np.sqrt(input_sq)), float(np.sqrt(output_sq)),
                            amp if np.isfinite(amp) else 1e308)


def _reference_scan(tail, r_sys, N, margin, depth, fixed_beta=None):
    r_env = decay_envelope(r_sys.A, margin)
    norms = [float(np.linalg.norm(M, 2)) if M.size else 0.0 for M in (r_sys.B, r_sys.C, r_sys.A)]
    alpha_min = min(tail.decay_alpha, r_env.alpha)
    tail_env = DecayEnvelope(tail.amplitude_a, tail.decay_alpha)
    best = None
    for beta in [fixed_beta] if fixed_beta is not None else beta_grid(alpha_min, depth):
        try:
            h_tail, g_tail = gain_weak(tail_env, beta, tail.input_norm, tail.output_graph_norm)
            h_r, g_r = gain_strong(r_env, beta, *norms)
        except BetaExceedsDecay:
            continue
        cert = certify_small_gain(g_r, h_r, g_tail, h_tail, N)
        if cert.verdict == "Certified":
            return cert
        if best is None or cert.product < best.product:
            best = cert
    return best


def _reference_loop(truncated, controller):
    n_u = controller.n_unstable
    return reduced_R_system(truncated.A[:n_u, :n_u], truncated.B[:n_u, :],
                            truncated.C[:, :n_u], controller.K_u, controller.L_u)


def _reference_candidates(sys_, epsilon):
    count = len(sys_.blocks)
    for j in range(cli.MAX_EPSILON_HALVINGS):
        try:
            N = select_truncation(sys_, epsilon / 2.0 ** j)
        except NotReachable:
            yield count
            return
        yield N
        if N >= count:
            return
    yield count


def _reference_write(out_dir, controller, truncated, cert):
    doc = cli.controller_to_doc(controller, truncated.m, truncated.p)
    validate_document(doc, "controller")
    write_json_atomic(str(Path(out_dir) / "controller.json"), doc)
    cli.write_certificate(out_dir, cert)


def _reference_synthesize(cfg, out_dir):
    sys_, _ = build_plant(cfg["plant"])
    part = partition_spectrum(sys_)
    cli._require_synthesizable(check_stabilizable(sys_))
    if cfg.get("N") is not None:
        candidates = [int(cfg["N"])]
    else:
        candidates = _reference_candidates(sys_, float(cfg["epsilon"]))
    best, tried = None, set()
    for N in candidates:
        if N in tried:
            continue
        tried.add(N)
        truncated, tail = _reference_truncate(sys_, N)
        controller = synthesize_controller(part, truncated)
        cert = _reference_scan(tail, _reference_loop(truncated, controller), N,
                               float(cfg["margin_fraction"]), int(cfg["beta_depth"]))
        if cert.verdict == "Certified":
            _reference_write(out_dir, controller, truncated, cert)
            print(f"synthesize: Certified at N={N} beta={cert.beta:.9g} "
                  f"product={cert.product:.9g}")
            return 0
        if best is None or cert.product < best[1].product:
            best = (controller, cert, truncated)
    detail = ""
    if best is not None:
        _reference_write(out_dir, best[0], best[2], best[1])
        detail = (f"; best product {best[1].product:.6g} at N={best[1].truncation_N}"
                  " (documents written for inspection)")
    raise CertificateNotFound(
        f"no truncation up to {len(sys_.blocks)} blocks certified; increase N_max{detail}")


def _reference_sweep(cfg, out_dir):
    sys_, _ = build_plant(cfg["plant"])
    part = partition_spectrum(sys_)
    cli._require_synthesizable(check_stabilizable(sys_))
    ns = sorted({int(N) for N in cfg["sweep_N"]})
    margin, depth = float(cfg["margin_fraction"]), int(cfg["beta_depth"])
    trunc0, tail0 = _reference_truncate(sys_, ns[0])
    r_env = decay_envelope(_reference_loop(trunc0, synthesize_controller(part, trunc0)).A,
                           margin)
    beta = min(tail0.decay_alpha, r_env.alpha) / 2.0 ** depth
    rows = []
    for N in ns:
        truncated, tail = _reference_truncate(sys_, N)
        controller = synthesize_controller(part, truncated)
        cert = _reference_scan(tail, _reference_loop(truncated, controller), N, margin, depth,
                               fixed_beta=beta)
        rows.append((N, cert.gain_tail.value, cert.gain_R.value, cert.product, cert.verdict))
    write_sweep_csv(str(Path(out_dir) / "sweep.csv"), rows)
    certified = [r for r in rows if r[4] == "Certified"]
    first = f" first Certified at N={certified[0][0]}" if certified else ""
    print(f"sweep: {len(certified)}/{len(rows)} rows Certified{first}")
    return 0


def _constant(value):
    return {"kind": "constant", "value": value}


def _indicator(xi1, xi2):
    return {"kind": "indicator", "xi1": xi1, "xi2": xi2}


REFERENCE_PLANTS = {
    "boundary_b5": {"type": "heat_boundary", "b": 5.0, "f": _constant(1.2)},
    "boundary_pi2": {"type": "heat_boundary", "b": math.pi ** 2, "f": _constant(1.1)},
    "boundary_m1": {"type": "heat_boundary", "b": -1.0, "f": _constant(0.0)},
    "boundary_b15": {"type": "heat_boundary", "b": 15.0, "f": _indicator(0.1, 0.6)},
    "boundary_b42": {"type": "heat_boundary", "b": 42.0, "f": _indicator(0.1, 0.9),
                     "N_max": 2},
    "heat_b5": {"type": "heat", "b": 5.0, "f": _constant(1.0)},
    "heat_b15": {"type": "heat", "b": 15.0, "f": _indicator(0.0, 0.5)},
    "heat_m3": {"type": "heat", "b": -3.0, "f": _constant(1.0)},
    "heat_b30": {"type": "heat", "b": 30.0, "f": {"kind": "cosine", "k0": 1.5}},
    "wave_b3": {"type": "wave", "b": 3.0, "kappa": 1.0, "f": _indicator(0.0, 0.5)},
    "wave_b30": {"type": "wave", "b": 30.0, "kappa": 1.0, "f": _indicator(0.0, 0.5)},
}


@pytest.mark.parametrize("plant", REFERENCE_PLANTS.values(), ids=REFERENCE_PLANTS.keys())
def test_one_design_per_plant_matches_per_truncation_reference(tmp_path, capsys, monkeypatch,
                                                               plant):
    sys_, _ = build_plant(plant)
    n_u, count = len(partition_spectrum(sys_).unstable_indices), len(sys_.blocks)
    sweep_N = sorted({N for N in (n_u, n_u + 1, (n_u + count) // 2, count) if 1 <= N <= count})
    configs = [("synthesize", {"plant": plant}),
               # N = 1 discards an unstable block of plants that have two
               ("synthesize", {"plant": plant, "N": 1}),
               ("sweep", {"plant": plant, "sweep_N": sweep_N})]

    def outcomes(side):
        seen = []
        for i, (command, cfg) in enumerate(configs):
            code, out = run(tmp_path, command, cfg, tag=f"{side}{i}")
            std = capsys.readouterr()
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            seen.append((code, std.out, std.err, files))
        return seen

    ours = outcomes("ours")
    monkeypatch.setitem(cli.COMMANDS, "synthesize", _reference_synthesize)
    monkeypatch.setitem(cli.COMMANDS, "sweep", _reference_sweep)
    assert ours == outcomes("reference")
    assert ours[0][0] in (0, 4) and ours[2][0] == 0 and ours[2][3]


def test_cli_imports_no_private_names():
    tree = ast.parse((Path(__file__).parents[1] / "src" / "modalstab" / "cli.py").read_text())
    private = [
        (node.module, alias.name) for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").startswith("modalstab"))
        for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_unknown_config_key_is_schema_error(tmp_path):
    code, _ = run(tmp_path, "analyze", {"plant": HEAT, "granularity": 3})
    assert code == 2


def test_missing_config_file(tmp_path):
    code = main(["analyze", "--config", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path)])
    assert code == 2


def test_bad_plant_document(tmp_path):
    code, _ = run(tmp_path, "analyze", {"plant": {"type": "beam", "b": 1.0}})
    assert code == 2


def test_undamped_wave_reports_infinite_unstable_part(tmp_path):
    cfg = {"plant": {"type": "wave", "b": 1.0, "kappa": 0.0,
                     "f": {"kind": "constant", "value": 1.0}}}
    code, _ = run(tmp_path, "analyze", cfg)
    assert code == 3


def test_budget_exhaustion_writes_best_attempt(tmp_path, capsys):
    code, out = run(tmp_path, "synthesize", {"plant": HEAVY_TAIL})
    assert code == 4
    assert "increase N_max" in capsys.readouterr().err
    cert = read_json(str(out / "certificate.json"), "certificate")
    assert cert["verdict"] == "Failed"
    read_json(str(out / "controller.json"), "controller")  # best attempt kept


@pytest.mark.parametrize("plant", [
    # mode 1 of b = 15 is unstable (15 > pi^2), and a constant profile misses it
    {"type": "heat", "b": 15.0, "f": _constant(1.0), "N_max": 8},
    # mode 0 has q_0 = (f_0 + s_0) / d_0 = 0 for every lift parameter a
    {"type": "heat_boundary", "b": 5.0, "f": _constant(-1.0)},
], ids=["heat_b15", "boundary_no_lift"])
def test_unstabilizable_plant_fails_synthesis(tmp_path, capsys, plant):
    code, _ = run(tmp_path, "synthesize", {"plant": plant})
    assert code == 5
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("synthesis failed: ")


@pytest.mark.parametrize("plant, inputs, message", [
    (WAVE, 1, "controller dimension 5 matches no truncation of the plant "
              "(resolved block dimensions reach 48)"),
    (HEAT, 2, "controller drives 2 plant inputs, plant accepts 1"),
], ids=["wave_plant", "two_input_controller"])
def test_controller_plant_dimension_mismatch(tmp_path, capsys, plant, inputs, message):
    _, out = run(tmp_path, "synthesize", {"plant": HEAT}, tag="syn")
    doc = read_json(str(out / "controller.json"))
    doc["G"], doc["dims"]["inputs"] = doc["G"] * inputs, inputs
    ctrl_path = tmp_path / "controller.json"
    ctrl_path.write_text(json.dumps(doc))
    capsys.readouterr()
    code, _ = run(tmp_path, "certify", {"plant": plant, "controller_file": str(ctrl_path)},
                  tag="cross")
    assert code == 6
    assert capsys.readouterr().err == f"dimension mismatch: {message}\n"


def test_certify_failure_still_writes_certificate(tmp_path):
    code, out = run(tmp_path, "synthesize", {"plant": HEAVY_TAIL}, tag="syn")
    assert code == 4
    cfg = {"plant": HEAVY_TAIL, "controller_file": str(out / "controller.json")}
    code2, out2 = run(tmp_path, "certify", cfg, tag="cert")
    assert code2 == 4
    assert read_json(str(out2 / "certificate.json"))["verdict"] == "Failed"


def test_perturbed_controller_falls_back_to_full_loop(tmp_path):
    _, out = run(tmp_path, "synthesize", {"plant": HEAT}, tag="syn")
    doc = read_json(str(out / "controller.json"))
    doc["G"] = [[100.0 * v for v in row] for row in doc["G"]]
    bent_path = tmp_path / "bent_controller.json"
    bent_path.write_text(json.dumps(doc))
    cfg = {"plant": HEAT, "controller_file": str(bent_path)}
    code, out2 = run(tmp_path, "certify", cfg, tag="bent")
    assert code == 4
    cert = read_json(str(out2 / "certificate.json"))
    assert cert["verdict"] == "Failed"


def test_sweep_monotone_tail_and_stable_gain_R(tmp_path):
    cfg = {"plant": HEAT, "sweep_N": [1, 3, 5, 7]}
    code, out = run(tmp_path, "sweep", cfg)
    assert code == 0
    lines = (out / "sweep.csv").read_text().strip().split("\n")
    assert lines[0] == "N,tail_gain,gain_R,product,verdict"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == [1, 3, 5, 7]
    tails = [float(r[1]) for r in rows]
    assert all(a > b for a, b in zip(tails, tails[1:]))
    assert len({r[2] for r in rows}) == 1  # same reduced system at every N
    verdicts = [r[4] for r in rows]
    if "Certified" in verdicts:
        first = verdicts.index("Certified")
        assert all(v == "Certified" for v in verdicts[first:])


def test_sweep_rejects_empty_list(tmp_path):
    code, _ = run(tmp_path, "sweep", {"plant": HEAT, "sweep_N": []})
    assert code == 2


# Synthesizes at N=1 with a one-state controller; certify and simulate below
# pair it with other plants.
CONST_HEAT = {"type": "heat", "b": 5.0, "f": {"kind": "constant", "value": 1.0},
              "N_max": 16}


@pytest.fixture(scope="module")
def const_heat_controller(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("const_heat")
    code, out = run(tmp, "synthesize", {"plant": CONST_HEAT})
    assert code == 0
    return str(out / "controller.json")


def test_ill_conditioned_loop_envelope_passes_its_residual_check():
    # cond P = 1.5e11: one sign solve leaves lambda_max(R) = 15, and only the
    # residual-correction solve brings it under 1.
    sys_, _ = build_plant({"type": "heat", "b": 60.0, "N_max": 64,
                           "f": {"kind": "indicator", "xi1": 0.1, "xi2": 0.6}})
    _design, loop = cli._prefix_design(sys_, partition_spectrum(sys_), 0.5)
    assert loop.env.amplitude_a > 1e5


def test_certify_falls_back_when_the_reduced_loop_is_not_hurwitz(tmp_path):
    # Negated feedback gains keep the observer structure, so the certificate
    # tries the reduced loop first; that loop is unstable, and so is the full
    # loop it falls back to.
    sys_, _ = build_plant(CONST_HEAT)
    truncated, _tail = truncate(sys_, 3)
    good = synthesize_controller(partition_spectrum(sys_), truncated)
    bad = observer_controller(truncated, -good.K_u, good.L_u, good.info)
    assert matches_observer_structure(truncated, bad)
    n_u = bad.n_unstable
    with pytest.raises(NotHurwitz):
        reduced_R_system(truncated.A[:n_u, :n_u], truncated.B[:n_u, :],
                         truncated.C[:, :n_u], bad.K_u, bad.L_u)
    ctrl_path = tmp_path / "controller.json"
    write_json_atomic(str(ctrl_path), cli.controller_to_doc(bad, truncated.m, truncated.p))
    code, out = run(tmp_path, "certify", {"plant": CONST_HEAT, "controller_file": str(ctrl_path)})
    assert code == 4
    cert = read_json(str(out / "certificate.json"), "certificate")
    assert cert["verdict"] == "Failed"
    assert cert["diagnostics"] == [
        "controller loop is not exponentially stable: spectral abscissa 15.099 >= 0"]


@pytest.mark.parametrize("command, extra, expected", [
    # schema error: the only beta grid point would be alpha_min itself
    ("synthesize", {"plant": CONST_HEAT, "beta_depth": 0}, 2),
    # one step of length 1e20 overflows the matrix exponential
    ("simulate", {"plant": CONST_HEAT, "horizon": 1e20, "dt": 1e20}, 2),
    # the full-loop Lyapunov sign iteration overflows on a mode at -1e-200
    ("certify", {"plant": {"type": "heat", "b": -1e-200,
                           "f": {"kind": "constant", "value": 0.0}}}, 4),
    # B B* overflows in the Riccati Hamiltonian: no numpy warning line first
    ("synthesize", {"plant": {"type": "heat", "b": 5.0,
                              "f": {"kind": "coefficients", "values": [1e200, 1.0]}}}, 5),
], ids=["beta_depth_0", "overflowing_step", "lyapunov_failure", "huge_coefficients"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_former_tracebacks_exit_with_one_line(tmp_path, capsys, const_heat_controller,
                                              command, extra, expected):
    cfg = dict(extra)
    if command in ("certify", "simulate"):
        cfg["controller_file"] = const_heat_controller
    code, _ = run(tmp_path, command, cfg)
    assert code == expected
    assert len(capsys.readouterr().err.splitlines()) == 1


@pytest.mark.parametrize("entry", ["1.0", True, None, [1.0], {}],
                         ids=["string", "bool", "null", "nested_list", "object"])
def test_certify_rejects_controller_with_non_number_entry(tmp_path, capsys,
                                                          const_heat_controller, entry):
    doc = json.loads(Path(const_heat_controller).read_text())
    doc["E"][0][0] = entry
    bad = tmp_path / "controller.json"
    bad.write_text(json.dumps(doc))
    code, _ = run(tmp_path, "certify", {"plant": CONST_HEAT, "controller_file": str(bad)})
    assert code == 2
    assert capsys.readouterr().err.startswith("invalid configuration: controller schema: ")


# Most draws land where plants build and controllers certify; the rest may be
# any finite JSON number.
_numbers = st.one_of(st.floats(min_value=-20.0, max_value=40.0),
                     st.floats(allow_nan=False, allow_infinity=False))
_profiles = st.one_of(
    st.fixed_dictionaries({"kind": st.just("constant"), "value": _numbers}),
    st.fixed_dictionaries({"kind": st.just("cosine"),
                           "k0": st.floats(min_value=0.0, max_value=40.0)}),
    st.fixed_dictionaries({"kind": st.just("indicator"),
                           "xi1": st.floats(min_value=0.0, max_value=1.0),
                           "xi2": st.floats(min_value=0.0, max_value=1.0)}),
    st.fixed_dictionaries({"kind": st.just("coefficients"),
                           "values": st.lists(_numbers, min_size=1, max_size=20)}),
    st.fixed_dictionaries({"kind": st.just("samples"),
                           "values": st.lists(_numbers, min_size=5, max_size=17)}),
)
_n_max = st.integers(min_value=1, max_value=16)
_plants = st.one_of(
    st.fixed_dictionaries({"type": st.just("heat"), "b": _numbers, "f": _profiles},
                          optional={"N_max": _n_max}),
    st.fixed_dictionaries({"type": st.just("wave"), "b": _numbers,
                           "kappa": st.one_of(st.floats(min_value=0.0, max_value=4.0),
                                              _numbers),
                           "f": _profiles},
                          optional={"N_max": _n_max}),
)


@st.composite
def _configs(draw):
    # at most 2e4 simulation steps keeps the whole property test near 10 s
    dt = draw(st.floats(min_value=1e-3, max_value=1e20))
    steps = draw(st.integers(min_value=1, max_value=2 * 10 ** 4))
    cfg = draw(st.fixed_dictionaries({"plant": _plants}, optional={
        "N": st.integers(min_value=1, max_value=40),
        "epsilon": st.floats(min_value=1e-12, max_value=1e3),
        "beta_depth": st.integers(min_value=1, max_value=40),
        "margin_fraction": st.floats(min_value=0.0, max_value=1.0,
                                     exclude_min=True, exclude_max=True),
        "seed": st.integers(min_value=0, max_value=2 ** 32),
        "x0": st.one_of(st.sampled_from(["ones", "random"]),
                        st.lists(_numbers, min_size=1, max_size=4)),
        "sweep_N": st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=4),
    }))
    cfg["dt"] = dt
    cfg["horizon"] = dt * steps
    return cfg


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(command=st.sampled_from(["analyze", "synthesize", "certify", "simulate", "sweep"]),
       cfg=_configs())
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_schema_valid_configs_end_in_documented_exit_codes(tmp_path_factory,
                                                           const_heat_controller,
                                                           command, cfg):
    if command in ("certify", "simulate"):
        cfg["controller_file"] = const_heat_controller
    validate_document(cfg, "config")
    code, _ = run(tmp_path_factory.mktemp("prop"), command, cfg)
    assert code in (0, 2, 3, 4, 5, 6)
