import ast
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from modalstab import (DecayEnvelope, StateSpaceSystem, TailModel, certify_small_gain, cli,
                       closed_loop_matrix, decay_envelope, fileio, gain_strong, gain_weak,
                       matrix_exponential, modal, partition_spectrum, plants, reduced_R_system,
                       select_truncation, simulate, simulate_closed_loop, spectral_abscissa,
                       synthesis, synthesize_controller, truncate)
from modalstab.cli import build_plant, main
from modalstab.errors import (BetaExceedsDecay, CertificateNotFound, DegenerateTrajectory,
                              NotReachable, UnstableModeDiscarded)
from modalstab.fileio import (read_json, validate_document, write_json_atomic,
                              write_sweep_csv)
from modalstab.gains import beta_grid
from modalstab.plants import SourceProfile, build_heat_boundary
from modalstab.synthesis import (check_stabilizable, design_feedback, design_observer,
                                 matches_observer_structure, observer_controller)

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


_NO_OPTIONAL_IMPORTS_SCRIPT = """
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
print(sorted(name for name in sys.modules
             if name.startswith(("scipy", "jsonschema", "referencing", "rpds", "attr"))))
"""


def test_commands_load_neither_scipy_nor_jsonschema(tmp_path):
    import modalstab

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(modalstab.__file__)))
    done = subprocess.run([sys.executable, "-c", _NO_OPTIONAL_IMPORTS_SCRIPT, str(tmp_path),
                           json.dumps(HEAT)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


_SIMULATE_IMPORTS_SCRIPT = """
import json, sys
from modalstab.cli import main
plant = json.loads(sys.argv[2])
controller = sys.argv[1] + "/synthesize/controller.json"
for command, cfg in (("synthesize", {"plant": plant}),
                     ("simulate", {"plant": plant, "controller_file": controller,
                                   "horizon": 1.0, "dt": 0.1, "x0": "random", "seed": 7})):
    path = f"{sys.argv[1]}/{command}.json"
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    assert main([command, "--config", path, "--out", sys.argv[1] + "/" + command]) == 0
print(sorted(name for name in sys.modules if "fraction" in name or "decimal" in name))
"""


def test_simulate_loads_neither_fractions_nor_decimal(tmp_path):
    # The trajectory formatter builds its power table from exact ints:
    # fractions would import decimal, a cost every cold command pays.
    import modalstab

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(modalstab.__file__)))
    done = subprocess.run([sys.executable, "-c", _SIMULATE_IMPORTS_SCRIPT, str(tmp_path),
                           json.dumps(HEAT)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "simulate" / "trajectory.csv").exists()
    assert done.stdout.splitlines()[-1] == "[]"


def _tree(root: Path) -> dict:
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def test_commands_decode_documents_as_utf8(tmp_path, capsys):
    # Every document is written as UTF-8 bytes.  A read in the locale's
    # encoding warns under -X warn_default_encoding, and -W error makes it fatal.
    # The process entry (cli.run) and the in-process main(argv) write the same
    # documents and lines.
    import modalstab

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(modalstab.__file__)))
    controller = str(tmp_path / "synthesize" / "controller.json")
    for command, extra in (("analyze", {}), ("synthesize", {}),
                           ("certify", {"controller_file": controller}),
                           ("simulate", {"controller_file": controller,
                                         "horizon": 1.0, "dt": 0.1}),
                           ("sweep", {"sweep_N": [3, 5]})):
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(json.dumps({"plant": HEAT, **extra}), encoding="utf-8")
        done = subprocess.run([sys.executable, "-X", "warn_default_encoding",
                               "-W", "error::EncodingWarning", "-m", "modalstab", command,
                               "--config", str(cfg), "--out", str(tmp_path / command)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
        in_process = tmp_path / "in_process" / command
        assert main([command, "--config", str(cfg), "--out", str(in_process)]) == 0
        assert capsys.readouterr().out == done.stdout
        assert _tree(in_process) == _tree(tmp_path / command)


_START_UP_SCRIPT = """
import json, sys, types
import modalstab.cli

def loaded():
    # a lazily loaded module is registered before it runs, as a ModuleType subclass
    return sorted(name for name in ("dataclasses", "modalstab.simulate")
                  if type(sys.modules.get(name)) is types.ModuleType)

seen = [loaded()]
for command, cfg in json.loads(sys.argv[1]):
    path = f"{sys.argv[2]}/{command}.json"
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    assert modalstab.cli.main([command, "--config", path, "--out", sys.argv[2] + "/out"]) == 0
    seen.append(loaded())
print(json.dumps(seen))
"""


def test_start_up_loads_simulate_only_for_simulate(tmp_path):
    # Records are built without dataclasses' code generation, and only the
    # simulate command runs modalstab.simulate.
    import modalstab

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(modalstab.__file__)))
    controller = str(tmp_path / "out" / "controller.json")
    commands = [("synthesize", {"plant": HEAT}),
                ("simulate", {"plant": HEAT, "controller_file": controller,
                              "horizon": 1.0, "dt": 0.1})]
    done = subprocess.run([sys.executable, "-c", _START_UP_SCRIPT, json.dumps(commands),
                           str(tmp_path)], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [[], [], ["modalstab.simulate"]]
    # every exported name resolves in a fresh interpreter, the lazy ones included
    script = ("import modalstab\nfrom modalstab import Trajectory, brute_force_gain\n"
              "print([name for name in modalstab.__all__ if not hasattr(modalstab, name)])")
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="one CPU runs one BLAS thread either way")
def test_simulate_bytes_do_not_depend_on_blas_threads(tmp_path):
    # Threaded GEMM and LU solves round differently from a single thread.
    # Importing modalstab pins the pools, so a child with the variable unset
    # writes the bytes a child with it set to 1 writes.
    import modalstab

    plant = {"type": "heat", "b": 15.0, "f": {"kind": "indicator", "xi1": 0.0, "xi2": 0.5}}
    _, syn = run(tmp_path, "synthesize", {"plant": plant}, tag="syn")
    cfg = tmp_path / "simulate.json"
    cfg.write_text(json.dumps({"plant": plant, "controller_file": str(syn / "controller.json"),
                               "horizon": 20.0, "dt": 0.01, "x0": "random", "seed": 7}))
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(modalstab.__file__))
    written = []
    for i, pinned in enumerate(({}, {"OPENBLAS_NUM_THREADS": "1"})):
        out = tmp_path / f"sim{i}"
        done = subprocess.run([sys.executable, "-m", "modalstab", "simulate", "--config",
                               str(cfg), "--out", str(out)],
                              env={**env, **pinned}, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        written.append([(out / name).read_bytes() for name in ("trajectory.csv", "summary.json")])
    assert written[0] == written[1]


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


def test_zero_state_controller_round_trips(tmp_path, capsys):
    # b = -1 leaves no unstable block and f = 0 no tail gain: N = 0 certifies
    plant = {"type": "heat", "b": -1.0, "f": {"kind": "constant", "value": 0.0}, "N_max": 8}
    code, syn = run(tmp_path, "synthesize", {"plant": plant}, tag="syn")
    assert code == 0
    assert read_json(str(syn / "controller.json"), "controller")["E"] == []
    cfg = {"plant": plant, "controller_file": str(syn / "controller.json")}
    code, out = run(tmp_path, "certify", cfg, tag="cert")
    assert code == 0
    assert (out / "certificate.json").read_bytes() == (syn / "certificate.json").read_bytes()
    capsys.readouterr()
    code, out = run(tmp_path, "simulate", cfg, tag="sim")
    assert code == 2
    assert capsys.readouterr().err == (
        "invalid configuration: a loop with no states has no trajectory; set N >= 1\n")
    assert os.listdir(out) == []
    code, out = run(tmp_path, "simulate", {**cfg, "N": 3, "horizon": 0.1}, tag="sim3")
    assert code == 0 and (out / "trajectory.csv").exists()


def test_simulate_rejects_wrong_x0_length(tmp_path):
    _, out = run(tmp_path, "synthesize", {"plant": HEAT}, tag="syn")
    cfg = {"plant": HEAT, "controller_file": str(out / "controller.json"),
           "x0": [1.0, 2.0], "N": 6, "horizon": 2.0, "dt": 0.1}
    code, _ = run(tmp_path, "simulate", cfg, tag="bad")
    assert code == 2


# The benchmark's trajectory plants: heat5 synthesizes at N=1 and writes 5
# trajectory.csv columns, wave3 87 and heat15 133 (no certificate, but a
# controller written for inspection).
TRAJECTORY_PLANTS = {
    "heat5": {"type": "heat", "b": 5.0, "f": {"kind": "constant", "value": 1.0}},
    "wave3": {"type": "wave", "b": 3.0, "kappa": 1.0,
              "f": {"kind": "indicator", "xi1": 0.0, "xi2": 0.5}},
    "heat15": {"type": "heat", "b": 15.0, "f": {"kind": "indicator", "xi1": 0.0, "xi2": 0.5}},
}


@pytest.fixture(scope="module")
def trajectory_controllers(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("trajectory_controllers")
    paths = {}
    for key, plant in TRAJECTORY_PLANTS.items():
        _, out = run(tmp, "synthesize", {"plant": plant}, tag=key)
        paths[key] = str(out / "controller.json")
    return paths


# The whole-trajectory simulate command, frozen as the reference for the
# streamed one: every state, y and u held at once, trajectory.csv formatted
# 256 rows at a time, and the decay fit over the whole trajectory.

def _reference_trajectory(plant, controller, x0, T, dt):
    M = closed_loop_matrix(plant, controller)
    n = plant.n
    n_steps = int(round(T / dt))
    Phi = matrix_exponential(M, dt)
    states = np.empty((n_steps + 1, M.shape[0]), dtype=Phi.dtype)
    states[0] = np.concatenate([np.asarray(x0).reshape(n), np.zeros(controller.n)])
    for i in range(n_steps):
        states[i + 1] = Phi @ states[i]
    return (np.arange(n_steps + 1) * dt, states, states[:, :n] @ plant.C.T,
            states[:, n:] @ controller.C.T)


def _reference_trajectory_csv(path, times, states, outputs, inputs, n_plant):
    header = (["t"] + [f"x_{i + 1}" for i in range(n_plant)]
              + [f"w_{i + 1}" for i in range(states.shape[1] - n_plant)]
              + [f"u_{i + 1}" for i in range(inputs.shape[1])]
              + [f"y_{i + 1}" for i in range(outputs.shape[1])])
    columns = (times[:, None], states.real, inputs.real, outputs.real)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, len(times), 256):
            block = [c[start:start + 256] for c in columns]
            fh.write(fileio._format_rows(np.hstack(block, dtype=np.float64)))


def _reference_decay_rate(times, norms) -> float:
    start = int(math.floor(len(norms) * 0.3))
    keep = norms[start:] > 0.0
    if np.sum(keep) < 2:
        raise DegenerateTrajectory("trajectory is zero after the skipped prefix")
    return float(-np.polyfit(times[start:][keep], np.log(norms[start:][keep]), 1)[0])


def _reference_cmd_simulate(cfg: dict, out_dir: str) -> int:
    sys_, controller = cli._plant_and_controller(cfg, "simulate")
    cert, _design = cli._recheck_certificate(sys_, controller, cfg)
    N = int(cfg["N"]) if cfg.get("N") is not None else cert.truncation_N
    truncated, _tail = truncate(sys_, N)
    x0 = cli._resolve_x0(cfg, truncated.n)
    times, states, outputs, inputs = _reference_trajectory(
        truncated, controller.as_state_space(), x0, float(cfg["horizon"]), float(cfg["dt"]))
    abscissa, witness = spectral_abscissa(
        closed_loop_matrix(truncated, controller.as_state_space()))
    norms = np.linalg.norm(states, axis=1)
    rate = _reference_decay_rate(times, norms)
    summary = {
        "N": int(N),
        "plant_dim": int(truncated.n),
        "controller_dim": int(controller.n),
        "horizon": float(cfg["horizon"]),
        "dt": float(cfg["dt"]),
        "decay_rate": float(rate),
        "spectral_abscissa": float(abscissa),
        "abscissa_witness": {"re": float(witness.real), "im": float(witness.imag)},
        "certificate_beta": float(cert.beta),
        "certificate_verdict": cert.verdict,
        "final_norm": float(norms[-1]),
    }
    _reference_trajectory_csv(os.path.join(out_dir, "trajectory.csv"), times, states,
                              outputs, inputs, truncated.n)
    write_json_atomic(os.path.join(out_dir, "summary.json"), summary)
    print(f"simulate: decay_rate={rate:.9g} abscissa={abscissa:.9g} "
          f"certificate_beta={cert.beta:.9g} ({cert.verdict})")
    return 0


def _bent_controller(tmp_path, ctrl: str) -> str:
    """A copy of the controller document whose last E entry is moved by 1e-4
    relative: far past STRUCTURE_RTOL, so it fails the observer check."""
    doc = read_json(ctrl)
    doc["E"][-1][-1] *= 1.0 + 1e-4
    path = tmp_path / "bent_controller.json"
    path.write_text(json.dumps(doc))
    return str(path)


# Configurations that take the dense path: heat5 and wave3 simulated finer
# than their design N (1 and 21), and heat15's controller bent off the
# observer structure.
@pytest.mark.parametrize("key, extra", [
    ("heat5", {"x0": "ones", "N": 3}),
    ("heat15", {"x0": "random", "seed": 7, "bent": True}),
    ("heat15", {"x0": "ones", "horizon": 1.21, "bent": True}),
    ("wave3", {"x0": "list", "N": 25}),
    ("wave3", {"x0": "random", "seed": 3, "horizon": 0.01, "N": 25}),
    ("heat5", {"x0": "zeros", "N": 3}),
], ids=["heat5_two_blocks", "heat15_partial_last_block", "heat15_two_whole_blocks",
        "wave3_listed_x0", "wave3_two_rows", "zero_x0_degenerate_fit"])
def test_streamed_simulate_writes_the_whole_trajectory_bytes(
        tmp_path, capsys, monkeypatch, trajectory_controllers, key, extra):
    # heat5 at N=3 steps 2001 rows in blocks of 1170, heat15 in blocks of 61
    # (122 rows fill two) and wave3 at N=25 in blocks of 86; the zero x0
    # fails its fit and must leave no documents, as the reference does.
    extra = dict(extra)
    ctrl = trajectory_controllers[key]
    if extra.pop("bent", False):
        ctrl = _bent_controller(tmp_path, ctrl)
    cfg = {"plant": TRAJECTORY_PLANTS[key], "controller_file": ctrl,
           "horizon": 20.0, "dt": 0.01, **extra}
    if extra["x0"] in ("list", "zeros"):
        sys_, _ = build_plant(TRAJECTORY_PLANTS[key])
        n = int(sys_.dims[:extra["N"]].sum())
        cfg["x0"] = ([(-1) ** k / (k + 1) for k in range(n)] if extra["x0"] == "list"
                     else [0.0] * n)
    outcomes = []
    for tag in ("streamed", "reference"):
        if tag == "reference":
            monkeypatch.setitem(cli.COMMANDS, "simulate", _reference_cmd_simulate)
        code, out = run(tmp_path, "simulate", cfg, tag=tag)
        written = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
        outcomes.append((code, capsys.readouterr(), written))
    assert outcomes[0] == outcomes[1]
    assert sorted(outcomes[0][2]) == ([] if extra["x0"] == "zeros"
                                      else ["summary.json", "trajectory.csv"])


def _bench_loop(trajectory_controllers, key):
    """(truncated plant, controller, config) of the benchmark's simulate of key."""
    cfg = {**cli.CONFIG_DEFAULTS, "plant": TRAJECTORY_PLANTS[key],
           "controller_file": trajectory_controllers[key],
           "horizon": 20.0, "dt": 0.01, "x0": "random", "seed": 7}
    sys_, controller = cli._plant_and_controller(cfg, "simulate")
    _cert, design = cli._recheck_certificate(sys_, controller, cfg)
    return design.truncated, controller.as_state_space(), cfg


def test_simulate_witness_of_a_real_loop_is_real(tmp_path, trajectory_controllers):
    # heat5's abscissa is a real double eigenvalue of a real loop; a complex
    # eigensolver gave it an imaginary part of 9.5e-8
    _, _, cfg = _bench_loop(trajectory_controllers, "heat5")
    code, out = run(tmp_path, "simulate", cfg)
    assert code == 0
    witness = read_json(str(out / "summary.json"))["abscissa_witness"]
    assert witness["im"] == 0.0


@pytest.mark.parametrize("key, tol", [("heat5", 1e-11), ("wave3", 1e-12)])
def test_real_loop_steps_like_the_complex_loop(trajectory_controllers, key, tol):
    # heat5's loop is a 2x2 Jordan-like block (a defective double eigenvalue),
    # so rounding grows as the square of the step count: at row 2000 the
    # float64 and complex128 steps are 2.9e-12 and 4.0e-12 from the exact
    # e^{M t} x0, and 1.1e-12 from each other
    plant, controller, cfg = _bench_loop(trajectory_controllers, key)
    x0 = cli._resolve_x0(cfg, plant.n)
    states = simulate_closed_loop(plant, controller, x0, cfg["horizon"], cfg["dt"]).states
    assert states.dtype == np.float64
    M = closed_loop_matrix(plant, controller).astype(np.complex128)
    Phi = matrix_exponential(M, cfg["dt"])
    step = np.concatenate([x0, np.zeros(controller.n)]).astype(np.complex128)
    for row in states:
        assert np.linalg.norm(row - step) <= tol * np.linalg.norm(step)
        step = Phi @ step


HEAT5_HALF = {"type": "heat", "b": 5.0, "f": {"kind": "indicator", "xi1": 0.0, "xi2": 0.5}}


def _mp_abscissa(truncated, controller, blocks) -> float:
    """Largest real eigenvalue part of A_u + B_u K_u, A_u + L_u C_u and the
    retained blocks, each solved at 50 digits from its float64 entries."""
    import mpmath

    def exact(M):
        return mpmath.matrix(np.asarray(M).real.tolist())

    def eigs(M):
        return [M[0, 0]] if M.rows == 1 else mpmath.eig(M, left=False, right=False)

    n_u = controller.n_unstable
    A, B, C, K, L = (exact(M) for M in (
        truncated.A, truncated.B, truncated.C, controller.K_u, controller.L_u))
    A_u = A[0:n_u, 0:n_u]
    spectrum = [*eigs(A_u + B[0:n_u, :] * K), *eigs(A_u + L * C[:, 0:n_u])]
    for blk in blocks:
        spectrum += eigs(exact(blk.block_matrix))
    return float(max(mpmath.re(z) for z in spectrum))


@pytest.mark.parametrize("plant", [HEAT5_HALF, TRAJECTORY_PLANTS["wave3"]],
                         ids=["heat5_indicator", "wave3"])
def test_design_n_abscissa_matches_an_mpmath_reference(tmp_path, plant):
    # heat5's abscissa, b - pi^2, is an eigenvalue of the plant and of the
    # observer error; a dense eigensolve of the loop put it 8.9e-6 off, and
    # wave3's -1/2 (shared by every retained mode) 6.4e-9 off
    import mpmath

    _, syn = run(tmp_path, "synthesize", {"plant": plant}, tag="syn")
    cfg = {"plant": plant, "controller_file": str(syn / "controller.json"),
           "horizon": 0.1, "dt": 0.01}
    code, out = run(tmp_path, "simulate", cfg, tag="sim")
    assert code == 0
    summary = read_json(str(out / "summary.json"))
    sys_, controller = cli._plant_and_controller(cfg, "simulate")
    _cert, design = cli._recheck_certificate(sys_, controller, {**cli.CONFIG_DEFAULTS, **cfg})
    assert design.k_u is not None
    retained = sys_.blocks[sys_.n_unstable:design.N]
    with mpmath.workdps(50):
        ref = _mp_abscissa(design.truncated, controller, retained)
    assert summary["spectral_abscissa"] == pytest.approx(ref, rel=1e-12, abs=0.0)
    assert summary["abscissa_witness"]["re"] == summary["spectral_abscissa"]
    assert summary["abscissa_witness"]["im"] >= 0.0


def _long_double_states(M: np.ndarray, x0: np.ndarray, steps: int, dt: float) -> np.ndarray:
    """States of x' = M x on the grid, from a degree-20 Taylor exponential of
    the float64 M scaled to 1-norm 1/4 and squared back, all in long double."""
    A = M.astype(np.longdouble) * np.longdouble(dt)
    squarings = max(0, math.ceil(math.log2(float(np.max(np.sum(np.abs(A), axis=0))) / 0.25)))
    A /= np.longdouble(2.0) ** squarings
    Phi = term = np.eye(len(A), dtype=np.longdouble)
    for k in range(1, 21):
        term = term @ A / np.longdouble(k)
        Phi = Phi + term
    for _ in range(squarings):
        Phi = Phi @ Phi
    states = np.empty((steps + 1, len(A)), dtype=np.longdouble)
    states[0] = x0
    for i in range(steps):
        states[i + 1] = Phi @ states[i]
    return states


def _worst_row_error(states: np.ndarray, ref: np.ndarray) -> float:
    """Largest entry error of a row relative to the row's largest |entry|."""
    err = np.max(np.abs(states.astype(np.longdouble) - ref), axis=1)
    return float(np.max(err / np.max(np.abs(ref), axis=1)))


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="long double is not extended precision here")
@pytest.mark.parametrize("key", ["heat5", "wave3", "heat15"])
def test_design_n_trajectory_beats_the_dense_steps(tmp_path, trajectory_controllers, key):
    # The dense loop's rounding grows with the step count: heat15's reaches
    # 5e-7 of a row by row 2000, its structured evaluation 1.5e-9.
    plant, controller, cfg = _bench_loop(trajectory_controllers, key)
    code, out = run(tmp_path, "simulate", cfg)
    assert code == 0
    cells = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
    structured = cells[:, 1:1 + plant.n + controller.n]
    x0 = cli._resolve_x0(cfg, plant.n)
    dense = simulate_closed_loop(plant, controller, x0, cfg["horizon"], cfg["dt"]).states
    ref = _long_double_states(closed_loop_matrix(plant, controller),
                              np.concatenate([x0, np.zeros(controller.n)]),
                              len(cells) - 1, cfg["dt"])
    errors = _worst_row_error(structured, ref), _worst_row_error(dense, ref)
    assert errors[0] < errors[1], errors
    if key == "heat15":
        assert errors[0] <= 1e-8, errors


def test_design_n_simulate_solves_nothing_larger_than_the_core(
        tmp_path, monkeypatch, trajectory_controllers):
    # heat15's loop has 130 states and a core of 2 n_u = 4; another N takes
    # the dense eigensolve and exponential of its whole loop
    orders = []

    def spy(fn):
        def wrapped(A, *args, **kwargs):
            orders.append(np.shape(A)[-1])
            return fn(A, *args, **kwargs)
        return wrapped

    for name in ("eig", "eigvals", "eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, spy(getattr(np.linalg, name)))
    monkeypatch.setattr(simulate, "matrix_exponential", spy(simulate.matrix_exponential))
    cfg = {"plant": TRAJECTORY_PLANTS["heat15"],
           "controller_file": trajectory_controllers["heat15"], "x0": "random", "seed": 7}
    code, _ = run(tmp_path, "simulate", cfg, tag="design")
    assert code == 0 and orders and max(orders) <= 4, orders
    orders.clear()
    code, _ = run(tmp_path, "simulate", {**cfg, "N": 64, "x0": "ones"}, tag="coarser")
    assert code == 0 and max(orders) == 64 + 65


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="one CPU runs one BLAS thread either way")
def test_simulate_decay_rate_does_not_depend_on_blas_threads(tmp_path):
    # The late states of this loop are near 1e-171.  Stepped densely, their
    # rounding moved the fitted rate from 20.5156 (one BLAS thread) to
    # 20.4055 in a process that loaded numpy, and so its threads, first.
    import modalstab

    plant = {"type": "heat", "b": 60.0, "N_max": 64,
             "f": {"kind": "indicator", "xi1": 0.1, "xi2": 0.6}}
    code, syn = run(tmp_path, "synthesize", {"plant": plant}, tag="syn")
    assert code == 4
    cfg = tmp_path / "simulate.json"
    cfg.write_text(json.dumps({"plant": plant, "controller_file": str(syn / "controller.json"),
                               "x0": "random", "seed": 7}))
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(modalstab.__file__))
    numpy_first = ("import sys, numpy\nfrom modalstab.cli import main\n"
                   "sys.exit(main(sys.argv[1:]))")
    rates = []
    for i, launcher in enumerate((["-m", "modalstab"], ["-c", numpy_first])):
        out = tmp_path / f"sim{i}"
        done = subprocess.run([sys.executable, *launcher, "simulate", "--config", str(cfg),
                               "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        rates.append(read_json(str(out / "summary.json"))["decay_rate"])
    assert rates[1] == pytest.approx(rates[0], rel=1e-9, abs=0.0)


def test_simulate_memory_does_not_grow_with_the_horizon(tmp_path, trajectory_controllers):
    # States, readouts and CSV text are held one block at a time: ten times
    # the horizon adds only the grid's times and state norms, 16 bytes a row.
    cfg = {"plant": TRAJECTORY_PLANTS["heat15"],
           "controller_file": trajectory_controllers["heat15"],
           "horizon": 20.0, "dt": 0.01, "x0": "random", "seed": 7}
    run(tmp_path, "simulate", cfg, tag="warm")  # lazily built tables and caches
    peaks = []
    for horizon in (20.0, 200.0):
        tracemalloc.start()
        try:
            code, _ = run(tmp_path, "simulate", {**cfg, "horizon": horizon}, tag=f"h{horizon:g}")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 0
    assert peaks[1] <= 1.5 * peaks[0], peaks


@pytest.mark.parametrize("horizon, dt", [(0.001, 0.01), (1.0, 3.0)])
def test_simulate_rejects_a_horizon_shorter_than_half_a_step(
        tmp_path, capsys, trajectory_controllers, horizon, dt):
    # the grid rounds to t = 0 alone: no decay to fit, though x0 is nonzero
    cfg = {"plant": TRAJECTORY_PLANTS["heat5"], "controller_file": trajectory_controllers["heat5"],
           "horizon": horizon, "dt": dt, "x0": "ones"}
    code, out = run(tmp_path, "simulate", cfg)
    assert code == 2
    assert capsys.readouterr().err == (f"invalid configuration: horizon {horizon:g} with dt "
                                       f"{dt:g} gives a time grid of 1 row; simulate needs "
                                       "at least 2\n")
    assert not (out / "trajectory.csv").exists()


@pytest.mark.parametrize("x0, code", [("ones", 0), ("zeros", 2)])
def test_simulate_fits_the_decay_up_to_the_last_nonzero_state(
        tmp_path, capsys, trajectory_controllers, x0, code):
    # heat5's loop decays at rate 5, so its states underflow to exact zeros
    # near t = 150, long before the last 70% of a 2000 s grid begins.  The fit
    # ends at the last positive norm; a zero x0 has none and still exits 2.
    ctrl = trajectory_controllers["heat5"]
    dims = read_json(ctrl)["dims"]
    cfg = {"plant": TRAJECTORY_PLANTS["heat5"], "controller_file": ctrl, "horizon": 2000.0,
           "dt": 1.0, "x0": "ones" if x0 == "ones" else [0.0] * (dims["n_unstable"]
                                                                + dims["n_retained"])}
    got, out = run(tmp_path, "simulate", cfg, tag=x0)
    assert got == code
    if code:
        assert "trajectory is zero after the skipped prefix" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())
        return
    summary = read_json(str(out / "summary.json"))
    assert summary["final_norm"] == 0.0
    assert summary["decay_rate"] == pytest.approx(-summary["spectral_abscissa"], rel=0.01)
    rows = (out / "trajectory.csv").read_text().splitlines()
    assert len(rows) == 2002 and rows[-1] == "2000,0,0,0,0"


def test_simulate_norms_do_not_underflow(tmp_path):
    # The loop decays at rate 20.5, so its last states are near 1e-171 and
    # their squares underflow: the state norms must not, and the fit must use
    # the whole window.
    plant = {"type": "heat", "b": 60.0, "N_max": 64,
             "f": {"kind": "indicator", "xi1": 0.1, "xi2": 0.6}}
    code, syn = run(tmp_path, "synthesize", {"plant": plant}, tag="syn")
    assert code == 4
    cfg = {"plant": plant, "controller_file": str(syn / "controller.json"),
           "x0": "random", "seed": 7}
    code, out = run(tmp_path, "simulate", cfg, tag="sim")
    assert code == 0
    summary = read_json(str(out / "summary.json"))
    n = summary["plant_dim"] + summary["controller_dim"]
    rows = [[float(v) for v in line.split(",")]
            for line in (out / "trajectory.csv").read_text().splitlines()[1:]]
    times = np.array([row[0] for row in rows])
    norms = np.array([math.hypot(*row[1:1 + n]) for row in rows])  # scaled, exact to an ulp
    assert np.all(norms > 0.0) and norms[-1] < 1e-160
    assert summary["final_norm"] == pytest.approx(norms[-1], rel=1e-14, abs=0.0)
    assert summary["decay_rate"] == pytest.approx(_reference_decay_rate(times, norms), rel=1e-12)


@pytest.mark.parametrize("b, n_max", [(5.0, 64), (math.pi ** 2, 8), (-1.0, 3),
                                      (5.0, 1), (42.0, 2)])
def test_boundary_plant_shares_one_far_table(b, n_max):
    # The CLI's plant is one build_heat_boundary call at N_max, so it equals a
    # standalone call on the default grid, also at the smallest N_max with a
    # stable tail (5.0/1, 42.0/2).
    doc = {"type": "heat_boundary", "b": b, "f": {"kind": "constant", "value": 1.1},
           "N_max": n_max}
    sys_, data = build_plant(doc)
    ref_sys, ref = build_heat_boundary(b, SourceProfile.constant(1.1), None, n_max)
    assert data.a == ref.a
    assert data.u_output == ref.u_output
    assert data.series_remainder == ref.series_remainder
    assert sys_.tail.input_norm == ref_sys.tail.input_norm
    assert sys_.tail.output_graph_norm == ref_sys.tail.output_graph_norm


def test_boundary_command_evaluates_far_profile_on_summed_range(tmp_path, monkeypatch):
    # The far series evaluates f on at most TAIL_SUMMED_TERMS modes past N_max,
    # once per command, in the one build_heat_boundary call; a constant profile
    # has f_k = 0 there, so it evaluates none.
    n_max, far_calls = 8, []
    inner = plants._raw_cos_inner

    def counting(profile, ks):
        if max(ks, default=0.0) > n_max:
            far_calls.append((profile.kind, len(ks)))
        return inner(profile, ks)

    def no_search(*args):
        raise AssertionError("the CLI searched the lift grid apart from the build")

    monkeypatch.setattr(plants, "_raw_cos_inner", counting)
    monkeypatch.setattr(plants, "search_lift_parameter", no_search)
    assert not hasattr(cli, "search_lift_parameter")
    for tag, f in (("constant", {"kind": "constant", "value": 1.2}),
                   ("indicator", {"kind": "indicator", "xi1": 0.1, "xi2": 0.6})):
        cfg = {"plant": {"type": "heat_boundary", "b": 5.0, "f": f, "N_max": n_max}}
        code, _ = run(tmp_path, "analyze", cfg, tag=tag)
        assert code == 0
    assert [kind for kind, _ in far_calls] == ["indicator"]
    assert all(count <= plants.TAIL_SUMMED_TERMS for _, count in far_calls)


# The synthesize and sweep commands as they were before the controller design
# moved out of the candidate loop: every truncation order N gets its own dense
# truncation, tail sum, Riccati design, reduced loop, decay envelope and
# per-beta certificates.
def _reference_max_real(M):
    """Rightmost eigenvalue real part of a real 1x1 or 2x2 block, in real arithmetic."""
    if len(M) == 1:
        return float(M[0, 0].real)
    (a11, a12), (a21, a22) = M.real
    disc = (a11 - a22) * (a11 - a22) + 4.0 * a12 * a21
    return float((a11 + a22) + math.sqrt(max(disc, 0.0))) / 2.0


def _reference_condition(M):
    """2-norm condition number of the unit-column eigenvectors (inf if defective)."""
    if len(M) == 1:
        return 1.0
    vecs = np.linalg.eig(M)[1]
    sv = np.linalg.svd(vecs / np.linalg.norm(vecs, axis=0), compute_uv=False)
    return float(sv[0] / sv[-1]) if sv[-1] > 1e-300 else float("inf")


def _reference_truncate(sys_, N):
    kept, discarded = sys_.blocks[:N], sys_.blocks[N:]
    for blk in discarded:
        max_re = _reference_max_real(blk.block_matrix)
        if max_re >= 0.0:
            raise UnstableModeDiscarded(
                f"block {blk.label} has eigenvalue real part {max_re:g} >= 0")
    dense = StateSpaceSystem(block_diag(*[blk.block_matrix for blk in kept]),
                             np.vstack([blk.input_row for blk in kept]),
                             np.hstack([blk.output_col for blk in kept]))
    tail = sys_.tail
    input_sq, output_sq = tail.input_norm ** 2, tail.output_graph_norm ** 2
    alpha, amp = tail.decay_alpha, tail.amplitude_a
    for blk in discarded:
        input_sq += float(np.linalg.norm(blk.input_row)) ** 2
        c_norm = float(np.linalg.norm(blk.output_col, 2))
        sigma_min = float(np.linalg.svd(blk.block_matrix, compute_uv=False)[-1])
        output_sq += (c_norm / (1.0 + sigma_min)) ** 2
        alpha = min(alpha, -_reference_max_real(blk.block_matrix))
        amp = max(amp, _reference_condition(blk.block_matrix))
    return dense, TailModel(alpha, float(np.sqrt(input_sq)), float(np.sqrt(output_sq)),
                            amp if np.isfinite(amp) else 1e308)


def _reference_rest_alpha(sys_, n_u):
    """Decay rate of the blocks after the first n_u, the tail's included."""
    return min([sys_.tail.decay_alpha]
               + [-_reference_max_real(blk.block_matrix) for blk in sys_.blocks[n_u:]])


def _reference_scan(tail, r_sys, N, margin, depth, rest_alpha, fixed_beta=None):
    # beta stays below rest_alpha too: the loop keeps the blocks outside the prefix
    r_env = decay_envelope(r_sys.A, margin)
    norms = [float(np.linalg.norm(M, 2)) if M.size else 0.0 for M in (r_sys.B, r_sys.C, r_sys.A)]
    alpha_min = min(tail.decay_alpha, r_env.alpha, rest_alpha)
    tail_env = DecayEnvelope(tail.amplitude_a, tail.decay_alpha)
    best = None
    # j = 0 is a decay rate itself, never strictly below it
    for beta in [fixed_beta] if fixed_beta is not None else beta_grid(alpha_min, depth)[1:]:
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
    rest_alpha = _reference_rest_alpha(sys_, len(part.unstable_indices))
    for N in candidates:
        if N in tried:
            continue
        tried.add(N)
        truncated, tail = _reference_truncate(sys_, N)
        controller = synthesize_controller(part, truncated)
        cert = _reference_scan(tail, _reference_loop(truncated, controller), N,
                               float(cfg["margin_fraction"]), int(cfg["beta_depth"]), rest_alpha)
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
    rest_alpha = _reference_rest_alpha(sys_, len(part.unstable_indices))
    beta = min(tail0.decay_alpha, r_env.alpha, rest_alpha) / 2.0 ** depth
    rows = []
    for N in ns:
        truncated, tail = _reference_truncate(sys_, N)
        controller = synthesize_controller(part, truncated)
        cert = _reference_scan(tail, _reference_loop(truncated, controller), N, margin, depth,
                               rest_alpha, fixed_beta=beta)
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


def _three_calls(tmp_path, capsys):
    """analyze --print-config, an argv argparse refuses, then synthesize:
    (exit code, stdout, stderr) of each and the bytes of every document."""
    (tmp_path / "cfg.json").write_text(json.dumps({"plant": HEAT}))
    out = tmp_path / "out"
    common = ["--config", str(tmp_path / "cfg.json"), "--out", str(out)]
    calls = []
    for argv in (["analyze", *common, "--print-config"], ["analyze", "--out", str(out)],
                 ["synthesize", *common]):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        std = capsys.readouterr()
        calls.append((code, std.out, std.err))
    documents = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    for path in out.iterdir():
        path.unlink()
    return calls, documents


def test_reused_parser_answers_as_a_fresh_one(tmp_path, capsys, monkeypatch):
    cli.build_parser.cache_clear()
    reused = _three_calls(tmp_path, capsys)
    assert cli.build_parser.cache_info().misses == 1
    with monkeypatch.context() as patch:
        patch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = _three_calls(tmp_path, capsys)
    assert reused == fresh
    assert [code for code, _, _ in fresh[0]] == [0, 2, 0]
    assert fresh[0][1][2].startswith("usage: modalstab analyze")
    assert sorted(fresh[1]) == ["analysis.json", "certificate.json", "controller.json"]


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


def test_deeply_nested_config_exits_with_one_line(tmp_path, capsys):
    path = tmp_path / "nested.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    code = main(["analyze", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"invalid configuration: {path}: invalid JSON: ")


@pytest.mark.parametrize("plant, constant", [
    ({"type": "heat_boundary", "b": math.nan}, "NaN"),
    ({"type": "heat_boundary", "b": 5.0, "a_grid": [math.inf, 6.0]}, "Infinity"),
    ({"type": "heat", "b": -math.inf}, "-Infinity"),
])
def test_non_finite_json_constants_are_invalid_json(tmp_path, capsys, plant, constant):
    # json.dumps writes NaN and +-Infinity, which JSON does not have
    plant = {**plant, "f": {"kind": "constant", "value": 1.0}, "N_max": 8}
    code, out = run(tmp_path, "analyze", {"plant": plant})
    assert code == 2 and not out.exists()
    path = tmp_path / "cfg_analyze_out.json"
    assert capsys.readouterr().err == (
        f"invalid configuration: {path}: invalid JSON: {constant} is not a number\n")


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


@pytest.mark.parametrize("f", [
    {"kind": "coefficients", "values": [1.0, 1e-30] + [0.0] * 63},
    # the quadrature leaves f_1 = 5.5e-17 where the constant kind has an exact 0
    {"kind": "samples", "values": [1.0] * 4097},
], ids=["coefficients", "samples"])
def test_nearly_unreachable_mode_fails_analyze_and_synthesis(tmp_path, capsys, f):
    plant = {"type": "heat", "b": 15.0, "f": f, "N_max": 64}
    code, out = run(tmp_path, "analyze", {"plant": plant})
    assert code == 0
    doc = read_json(str(out / "analysis.json"))
    assert doc["verdict"]["stabilizable"] is False
    assert doc["verdict"]["offending_stabilizable"] == [1]
    mode1 = doc["modes"][1]
    assert mode1["label"] == 1 and mode1["input_coefficient"] > 0.0
    assert not mode1["stabilizable"] and mode1["stab_margin"] < 1e-10
    capsys.readouterr()
    for command, extra in (("synthesize", {}), ("sweep", {"sweep_N": [2, 8]})):
        code, _ = run(tmp_path, command, {"plant": plant, **extra}, tag=command)
        assert code == 5
        assert capsys.readouterr().err == (
            "synthesis failed: unstable modes [1] are unreachable from the input\n")


@pytest.mark.parametrize("b, f, offending, failing", [
    # mode 0 has q_0 = (f_0 + s_0) / d_0 = 0 for every lift parameter a
    (5.0, _constant(-1.0), [0], ("input_mode", 0)),
    # b = 0 puts mode 0 on the kernel, where g2_0 = f_0 + a h_0 = -1 + a / a = 0
    (0.0, {"kind": "coefficients", "values": [-1.0, 2.0]}, [-1], ("kernel_coupling", 0)),
], ids=["input_mode", "kernel_coupling"])
def test_failing_lift_report_leaves_the_verdict_to_the_rank_test(tmp_path, capsys, b, f,
                                                                 offending, failing):
    plant = {"type": "heat_boundary", "b": b, "f": f, "N_max": 16}
    code, out = run(tmp_path, "analyze", {"plant": plant})
    assert code == 0
    doc = read_json(str(out / "analysis.json"))
    assert doc["verdict"]["stabilizable"] is False and doc["verdict"]["pass"] is False
    assert doc["verdict"]["offending_stabilizable"] == offending
    constraints = doc["lift"]["constraints"]
    assert constraints["all_pass"] is False
    assert [(e["name"], e["k"]) for e in constraints["entries"] if not e["passed"]] == [failing]
    capsys.readouterr()
    for command, extra in (("synthesize", {}), ("sweep", {"sweep_N": [2, 8]})):
        code, _ = run(tmp_path, command, {"plant": plant, **extra}, tag=command)
        assert code == 5
        assert capsys.readouterr().err == (
            f"synthesis failed: unstable modes {offending} are unreachable from the input\n")


def test_kernel_block_at_a_tiny_b_is_designed_like_b_zero(tmp_path, capsys):
    # b = -1e-200 pins mode 0 to the kernel, and its block [[0, 0], [g2, b]]
    # keeps the integrator's exact eigenvalue 0: it is unstable and gets a gain
    outputs = []
    for tag, b in (("zero", 0.0), ("tiny", -1e-200)):
        plant = {"type": "heat_boundary", "b": b, "f": _constant(1.0), "N_max": 8}
        code, out = run(tmp_path, "synthesize", {"plant": plant}, tag=tag)
        assert code == 0
        cert = read_json(str(out / "certificate.json"), "certificate")
        code, sim = run(tmp_path, "simulate", {
            "plant": plant, "controller_file": str(out / "controller.json"),
            "horizon": 1.0}, tag=f"{tag}_simulate")
        assert code == 0
        summary = read_json(str(sim / "summary.json"))
        assert cert["verdict"] == "Certified" and cert["beta"] < -summary["spectral_abscissa"]
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_rank_tests_run_on_the_unstable_blocks_only(tmp_path, monkeypatch):
    # heat b = 5 has one unstable mode among 4,097: two PBH tests, not 8,194.
    plant = {"type": "heat", "b": 5.0, "f": _constant(1.0), "N_max": 4096}
    sys_, _ = build_plant(plant)
    calls = []
    original = synthesis._pbh_margin

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(synthesis, "_pbh_margin", counting)
    report = check_stabilizable(sys_)
    assert sys_.n_unstable == 1 and len(calls) == 2 * sys_.n_unstable
    assert len(report.stab_margins) == len(report.det_margins) == sys_.n_unstable
    code, out = run(tmp_path, "analyze", {"plant": plant})
    assert code == 0 and len(calls) == 4 * sys_.n_unstable
    modes = read_json(str(out / "analysis.json"))["modes"]
    assert len(modes) == len(sys_) == 4097
    assert [m["label"] for m in modes] == sys_.labels.tolist()
    assert modes[0]["unstable"] and modes[0]["stab_margin"] == report.stab_margins[0]
    stable = modes[sys_.n_unstable:]
    assert all(not m["unstable"] and m["stabilizable"] and m["detectable"]
               and m["stab_margin"] == m["det_margin"] == 1.0 for m in stable)


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


@pytest.mark.parametrize("plant, source, dims, message", [
    (WAVE, HEAT, {}, "dimension mismatch: controller dimension 5 matches no truncation of the "
                     "plant (resolved block dimensions reach 48)"),
    (HEAT, HEAT, {"inputs": 2}, "dimension mismatch: controller drives 2 plant inputs, "
                                "plant accepts 1"),
    (HEAT, HEAT, {"outputs": 2}, "dimension mismatch: controller consumes 2 plant outputs, "
                                 "plant emits 1"),
    # the one-state controller's N = 1 leaves heat15's second unstable block out
    (TRAJECTORY_PLANTS["heat15"], CONST_HEAT, {},
     "invalid configuration: block 1 has eigenvalue real part 5.1304 >= 0"),
], ids=["wave_plant", "two_input_controller", "two_output_controller", "short_of_the_unstable"])
def test_controller_plant_dimension_mismatch(tmp_path, capsys, plant, source, dims, message):
    _, out = run(tmp_path, "synthesize", {"plant": source}, tag="syn")
    doc = read_json(str(out / "controller.json"))
    doc["G"] = doc["G"] * dims.get("inputs", 1)
    doc["F"] = [row * dims.get("outputs", 1) for row in doc["F"]]
    doc["dims"].update(dims)
    ctrl_path = tmp_path / "controller.json"
    ctrl_path.write_text(json.dumps(doc))
    for command in ("certify", "simulate"):
        capsys.readouterr()
        code, out = run(tmp_path, command, {"plant": plant, "controller_file": str(ctrl_path)},
                        tag=command)
        assert code == (6 if message.startswith("dimension") else 2)
        assert capsys.readouterr().err == f"{message}\n"
        assert not any(out.iterdir())


def _count_truncations(monkeypatch) -> list:
    """The N of every ``modal.truncate`` call from here on, in every module that holds it."""
    calls, original = [], modal.truncate

    def counting(sys_, N):
        calls.append(N)
        return original(sys_, N)

    for name, module in list(sys.modules.items()):
        if name.startswith("modalstab") and getattr(module, "truncate", None) is original:
            monkeypatch.setattr(module, "truncate", counting)
    return calls


@pytest.mark.parametrize("bent", [False, True], ids=["synthesized", "bent"])
def test_certify_and_simulate_truncate_the_plant_once(tmp_path, monkeypatch, bent):
    # the controller's fit serves the certificate, the full-loop fallback of
    # a controller without the observer structure and a simulate at its N
    _, out = run(tmp_path, "synthesize", {"plant": HEAT}, tag="syn")
    doc = read_json(str(out / "controller.json"))
    if bent:  # as in test_perturbed_controller_falls_back_to_full_loop
        doc["G"] = [[100.0 * v for v in row] for row in doc["G"]]
    ctrl_path = tmp_path / "controller.json"
    ctrl_path.write_text(json.dumps(doc))
    calls = _count_truncations(monkeypatch)
    cfg = {"plant": HEAT, "controller_file": str(ctrl_path), "horizon": 0.1}
    for command, code in (("certify", 4 if bent else 0), ("simulate", 0)):
        calls.clear()
        assert run(tmp_path, command, cfg, tag=command)[0] == code
        assert len(calls) == 1, (command, calls)


def test_ill_conditioned_loop_envelope_passes_its_residual_check():
    # cond P = 1.5e11: one sign solve leaves lambda_max(R) = 15, and only the
    # residual-correction solve brings it under 1.
    sys_, _ = build_plant({"type": "heat", "b": 60.0, "N_max": 64,
                           "f": {"kind": "indicator", "xi1": 0.1, "xi2": 0.6}})
    _design, loop = cli._prefix_design(sys_, check_stabilizable(sys_).prefix,
                                       partition_spectrum(sys_), 0.5)
    assert loop.env.amplitude_a > 1e5


def test_certify_falls_back_when_the_reduced_loop_is_not_hurwitz(tmp_path):
    # Negated feedback gains keep the observer structure, so the certificate
    # tries the reduced loop first; that loop is unstable, and so is the full
    # loop it falls back to.
    sys_, _ = build_plant(CONST_HEAT)
    truncated, _tail = truncate(sys_, 3)
    good = synthesize_controller(partition_spectrum(sys_), truncated)
    bad = observer_controller(truncated, -good.K_u, good.L_u, good.info)
    design = matches_observer_structure(sys_, bad)
    assert design.k_u is not None
    assert cli._reduced_loop(sys_, design.k_u, truncated, bad, 0.5).env is None
    ctrl_path = tmp_path / "controller.json"
    write_json_atomic(str(ctrl_path), cli.controller_to_doc(bad, truncated.m, truncated.p))
    code, out = run(tmp_path, "certify", {"plant": CONST_HEAT, "controller_file": str(ctrl_path)})
    assert code == 4
    cert = read_json(str(out / "certificate.json"), "certificate")
    assert cert["verdict"] == "Failed"
    assert cert["diagnostics"] == [
        "controller loop is not exponentially stable: spectral abscissa 15.099 >= 0"]


@pytest.mark.parametrize("command, extra", [("synthesize", {}), ("sweep", {"sweep_N": [3, 5]})],
                         ids=["synthesize", "sweep"])
def test_designing_commands_reject_a_loop_that_is_not_stable(tmp_path, capsys, monkeypatch,
                                                            command, extra):
    # negated feedback gains: the reduced loop's bounds find no envelope
    def bent(part, prefix):
        good = synthesize_controller(part, prefix)
        return observer_controller(prefix, -good.K_u, good.L_u, good.info)

    monkeypatch.setattr(cli, "synthesize_controller", bent)
    code, out = run(tmp_path, command, {"plant": CONST_HEAT, **extra})
    assert code == 5
    assert capsys.readouterr().err == ("synthesis failed: controller loop is not exponentially "
                                       "stable: spectral abscissa 15.099 >= 0\n")
    assert os.listdir(out) == []


def _place(A, B, poles):
    """Single-input K with eig(A + B K) = poles, by Ackermann's formula."""
    n = len(A)
    ctrb = np.hstack([np.linalg.matrix_power(A, k) @ B for k in range(n)])
    phi = sum(c * np.linalg.matrix_power(A, n - k) for k, c in enumerate(np.poly(poles)))
    return -np.eye(n)[-1:] @ np.linalg.solve(ctrb, phi)


def _prefix_controller(tmp_path, plant, n_u, gains):
    """Path of the observer controller over every resolved block of plant
    whose gains (K_u, L_u) act on its first n_u states."""
    sys_, _ = build_plant(plant)
    truncated, _tail = truncate(sys_, len(sys_))
    A, B, C = (M.real for M in (truncated.A[:n_u, :n_u], truncated.B[:n_u], truncated.C[:, :n_u]))
    K_u, L_u = gains(A, B, C)
    ctrl = observer_controller(truncated, K_u.astype(complex), L_u.astype(complex),
                               synthesis.DesignInfo(1.0, 1.0, 0.0, 0.0))
    path = tmp_path / "controller.json"
    write_json_atomic(str(path), cli.controller_to_doc(ctrl, truncated.m, truncated.p))
    return str(path)


# Observer controllers whose gains' prefix is no block-aligned cover of the
# unstable blocks, with the abscissa of their (unstable) closed loops.
# short_prefix: heat b=15 has unstable modes 15 and 15 - pi^2 = 5.13, and
# Riccati gains act on the first only.  split_block: n_unstable = 2 cuts the
# plant's 2x2 kernel block (x_0 | u, e_k), whose row feeds e_k back into e_u;
# gains placed at -3 and -6 on (x_0, u).  Both certified before the prefix
# was checked (at N=65 and N=257).
PREFIX_CASES = {
    "short_prefix": (TRAJECTORY_PLANTS["heat15"], 1,
                     lambda A, B, C: (design_feedback(A, B), design_observer(A, C)), 5.1304),
    "split_block": ({"type": "heat_boundary", "b": math.pi ** 2,
                     "f": {"kind": "constant", "value": 1.0}, "N_max": 256}, 2,
                    lambda A, B, C: (_place(A, B, [-3.0, -6.0]), _place(A.T, C.T, [-3.0, -6.0]).T),
                    0.2224),
}


@pytest.mark.parametrize("case", PREFIX_CASES)
def test_certify_and_simulate_read_the_full_loop_off_a_covering_prefix(tmp_path, monkeypatch,
                                                                      case):
    plant, n_u, gains, abscissa = PREFIX_CASES[case]
    cfg = {"plant": plant, "controller_file": _prefix_controller(tmp_path, plant, n_u, gains)}
    code, out = run(tmp_path, "certify", cfg, tag="cert")
    assert code == 4
    cert = read_json(str(out / "certificate.json"), "certificate")
    assert cert["verdict"] == "Failed"
    # the reduced loop over the prefix is Hurwitz; only the full loop is not
    prefix = "controller loop is not exponentially stable: spectral abscissa "
    assert cert["diagnostics"][0].startswith(prefix)
    assert float(cert["diagnostics"][0][len(prefix):].split()[0]) == pytest.approx(abscissa,
                                                                                  abs=1e-4)
    # the fit has no k_u, so the structured path declines: the loop is dense
    loops, original = [], simulate.observer_loop
    monkeypatch.setattr(simulate, "observer_loop", lambda *args: loops.append(original(*args)))
    code, out = run(tmp_path, "simulate", {**cfg, "horizon": 0.1}, tag="sim")
    assert code == 0 and loops == [None]
    summary = read_json(str(out / "summary.json"))
    assert summary["spectral_abscissa"] == pytest.approx(abscissa, abs=1e-4)
    assert summary["certificate_verdict"] == "Failed"


def test_beta_stays_below_the_retained_modes_outside_the_prefix(tmp_path, monkeypatch):
    # heat b=9.8: mode 1 at b - pi^2 = -0.0696 is retained outside the
    # one-block prefix, so the loop decays no faster; beta was 2.45 when
    # only the tail and the reduced loop capped the grid
    plant = {"type": "heat", "b": 9.8, "f": _indicator(0.0, 0.5), "N_max": 64}
    rate = math.pi ** 2 - 9.8
    code, syn = run(tmp_path, "synthesize", {"plant": plant}, tag="syn")
    assert code in (0, 4)
    cert = read_json(str(syn / "certificate.json"), "certificate")
    assert cert["verdict"] == "Failed" or cert["beta"] < rate
    cfg = {"plant": plant, "controller_file": str(syn / "controller.json")}
    code, out = run(tmp_path, "certify", cfg, tag="cert")
    assert read_json(str(out / "certificate.json"), "certificate") == cert
    fixed = []
    original = cli.scan_certificate
    monkeypatch.setattr(cli, "scan_certificate", lambda *args, **kwargs: (
        fixed.append(kwargs["fixed_beta"]), original(*args, **kwargs))[1])
    assert run(tmp_path, "sweep", {"plant": plant, "sweep_N": [3, 65]}, tag="sweep")[0] == 0
    assert len(fixed) == 2 and fixed[0] == fixed[1] < rate


@pytest.mark.parametrize("command, extra, expected", [
    # schema error: the only beta grid point would be alpha_min itself
    ("synthesize", {"plant": CONST_HEAT, "beta_depth": 0}, 2),
    # one step of length 1e20 overflows the matrix exponential
    ("simulate", {"plant": CONST_HEAT, "horizon": 1e20, "dt": 1e20}, 2),
    # a grid of 10^15 rows does not fit in memory
    ("simulate", {"plant": CONST_HEAT, "horizon": 1e12, "dt": 1e-3}, 2),
    # the full-loop Lyapunov sign iteration overflows on a mode at -1e-200
    ("certify", {"plant": {"type": "heat", "b": -1e-200,
                           "f": {"kind": "constant", "value": 0.0}}}, 4),
    # B B* overflows in the Riccati Hamiltonian: no numpy warning line first
    ("synthesize", {"plant": {"type": "heat", "b": 5.0,
                              "f": {"kind": "coefficients", "values": [1e200, 1.0]}}}, 5),
], ids=["beta_depth_0", "overflowing_step", "huge_grid", "lyapunov_failure",
        "huge_coefficients"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_former_tracebacks_exit_with_one_line(tmp_path, capsys, const_heat_controller,
                                              command, extra, expected):
    cfg = dict(extra)
    if command in ("certify", "simulate"):
        cfg["controller_file"] = const_heat_controller
    code, out = run(tmp_path, command, cfg)
    assert code == expected
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert not (out / "trajectory.csv").exists()


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
