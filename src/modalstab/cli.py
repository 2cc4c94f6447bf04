"""Command-line surface: analyze, synthesize, certify, simulate, sweep.

Every command reads one schema-validated JSON configuration, writes its
results as documents under ``--out``, and reports through the exit code:

    0  success (certify: verdict Certified)
    2  invalid configuration, plant description, or document
    3  the plant has an infinite unstable part
    4  no stability certificate could be formed (synthesize budget, certify
       verdict, no admissible beta, failed Lyapunov solve)
    5  controller synthesis failed
    6  plant and controller files do not fit together

``EXIT_CODES`` maps each failure class to its code; every other toolkit
error, and any OS, value, key or arithmetic error, exits 2.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import fileio
from .errors import (BetaExceedsDecay, CertificateNotFound, DimensionMismatch,
                     InfiniteUnstablePart, LyapunovSolveFailed, ModalToolkitError,
                     NoAdmissibleParameter, NotDetectable, NotHurwitz, NotReachable,
                     NotStabilizable, RiccatiDivergence)
from .fileio import SchemaViolation
from .gains import BETA_GRID_DEPTH, loop_bounds, scan_certificate
from .modal import (ModalSystem, StateSpaceSystem, closed_loop_matrix,
                    partition_spectrum, select_truncation, truncate, truncate_tail)
from .plants import (DEFAULT_N_MAX, SourceProfile, build_heat, build_heat_boundary,
                     build_wave, search_lift_parameter)
from .simulate import estimate_decay_rate, simulate_closed_loop, spectral_abscissa
from .synthesis import (DesignInfo, ObserverController, check_stabilizable, loop_system,
                        matches_observer_structure, observer_controller, reduced_R_system,
                        synthesize_controller)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFINITE_UNSTABLE = 3
EXIT_NO_CERTIFICATE = 4
EXIT_SYNTHESIS = 5
EXIT_DIMENSION = 6

# Exception classes -> (exit code, stderr prefix); the first matching row wins.
EXIT_CODES = {
    (InfiniteUnstablePart,): (EXIT_INFINITE_UNSTABLE, "infinite unstable part"),
    (CertificateNotFound, BetaExceedsDecay, LyapunovSolveFailed):
        (EXIT_NO_CERTIFICATE, "no certificate"),
    (NotStabilizable, NotDetectable, RiccatiDivergence, NoAdmissibleParameter, NotHurwitz):
        (EXIT_SYNTHESIS, "synthesis failed"),
    (DimensionMismatch,): (EXIT_DIMENSION, "dimension mismatch"),
    (ModalToolkitError, OSError, ValueError, KeyError, ArithmeticError):
        (EXIT_CONFIG, "invalid configuration"),
}

# Halving the tail budget more often than this cannot enlarge N further.
MAX_EPSILON_HALVINGS = 32

CONFIG_DEFAULTS = {
    "epsilon": 0.1,
    "beta_depth": BETA_GRID_DEPTH,
    "margin_fraction": 0.5,
    "horizon": 20.0,
    "dt": 0.01,
    "seed": 0,
    "x0": "ones",
}

_CONFIG_KEY_ORDER = ("plant", "N", "epsilon", "beta_depth", "margin_fraction",
                     "horizon", "dt", "seed", "x0", "sweep_N", "controller_file")


def load_config(path: str) -> dict:
    doc = fileio.read_json(path, "config")
    merged = dict(CONFIG_DEFAULTS)
    merged.update(doc)
    return {k: merged[k] for k in _CONFIG_KEY_ORDER if k in merged}


def build_plant(doc: dict):
    """(ModalSystem, BoundaryLiftData or None) from a validated plant document."""
    f = SourceProfile(**doc["f"])  # the schema allows each kind's own field names only
    n_max = int(doc.get("N_max", DEFAULT_N_MAX))
    kind = doc["type"]
    if kind == "heat":
        return build_heat(float(doc["b"]), f, n_max), None
    if kind == "wave":
        return build_wave(float(doc["b"]), float(doc["kappa"]), f, n_max), None
    b = float(doc["b"])
    a = search_lift_parameter(b, f, doc.get("a_grid"), n_max)
    return build_heat_boundary(b, f, a, n_max)


def controller_to_doc(controller: ObserverController, inputs: int, outputs: int) -> dict:
    return {
        "E": fileio.matrix_to_doc(controller.E),
        "F": fileio.matrix_to_doc(controller.F),
        "G": fileio.matrix_to_doc(controller.G),
        "dims": {
            "n_unstable": int(controller.n_unstable),
            "n_retained": int(controller.n_retained),
            "inputs": int(inputs),
            "outputs": int(outputs),
        },
        "design": {
            "feedback_rate": float(controller.info.feedback_rate),
            "observer_rate": float(controller.info.observer_rate),
            "feedback_residual": float(controller.info.feedback_residual),
            "observer_residual": float(controller.info.observer_residual),
        },
    }


def controller_from_doc(doc: dict) -> ObserverController:
    dims = doc["dims"]
    n_u = int(dims["n_unstable"])
    n = n_u + int(dims["n_retained"])
    E = fileio.matrix_from_doc(doc["E"], n, n)
    F = fileio.matrix_from_doc(doc["F"], n, int(dims["outputs"]))
    G = fileio.matrix_from_doc(doc["G"], int(dims["inputs"]), n)
    d = doc["design"]
    # F = -[L; 0] and G = [K, 0] carry the unstable-prefix gains verbatim.
    return ObserverController(
        E=E, F=F, G=G, K_u=G[:, :n_u].copy(), L_u=-F[:n_u, :].copy(),
        n_unstable=n_u, n_retained=int(dims["n_retained"]),
        info=DesignInfo(float(d["feedback_rate"]), float(d["observer_rate"]),
                        float(d["feedback_residual"]), float(d["observer_residual"])))


def _block_count_for_dim(sys_: ModalSystem, n: int) -> int:
    """Number of leading blocks whose total state dimension is exactly n."""
    total = 0
    for i, blk in enumerate(sys_.blocks):
        if total == n:
            return i
        total += blk.dim
    if total == n:
        return len(sys_.blocks)
    raise DimensionMismatch(
        f"controller dimension {n} matches no truncation of the plant "
        f"(resolved block dimensions reach {total})")


def _check_io_dims(truncated: StateSpaceSystem, controller: ObserverController):
    if controller.F.shape[1] != truncated.p:
        raise DimensionMismatch(
            f"controller consumes {controller.F.shape[1]} plant outputs, plant emits {truncated.p}")
    if controller.G.shape[0] != truncated.m:
        raise DimensionMismatch(
            f"controller drives {controller.G.shape[0]} plant inputs, plant accepts {truncated.m}")


def _controller_loop(truncated: StateSpaceSystem, controller: ObserverController) -> StateSpaceSystem:
    n_u = int(controller.n_unstable)
    return reduced_R_system(truncated.A[:n_u, :n_u], truncated.B[:n_u, :],
                            truncated.C[:, :n_u], controller.K_u, controller.L_u)


def _recheck_certificate(sys_: ModalSystem, controller: ObserverController, cfg: dict):
    """Certificate for an imported controller at its own design truncation.

    The reduced controller-loop bound is only used after the observer
    structure has been verified entrywise against the rebuilt plant;
    otherwise the conservative full-loop bound applies.
    """
    N = _block_count_for_dim(sys_, controller.n)
    truncated, tail = truncate(sys_, N)
    _check_io_dims(truncated, controller)
    r_sys = None
    if matches_observer_structure(truncated, controller):
        try:
            r_sys = _controller_loop(truncated, controller)
        except NotHurwitz:
            r_sys = None
    if r_sys is None:
        r_sys = loop_system(truncated, controller.as_state_space())
    cert = scan_certificate(tail, loop_bounds(r_sys, float(cfg["margin_fraction"])), N,
                            depth=int(cfg["beta_depth"]))
    return cert, N


def _eig_doc(values) -> list:
    return [{"re": float(z.real), "im": float(z.imag)} for z in np.asarray(values).ravel()]


def analysis_document(plant_doc: dict, sys_: ModalSystem, part, report, lift) -> dict:
    modes = []
    for i, (blk, chk) in enumerate(zip(sys_.blocks, report.blocks)):
        modes.append({
            "label": int(blk.label),
            "dim": int(blk.dim),
            "unstable": i < sys_.n_unstable,
            "eigenvalues": _eig_doc(blk.eigenvalues()),
            "stabilizable": bool(chk.stabilizable),
            "detectable": bool(chk.detectable),
            "stab_margin": float(chk.stab_margin),
            "det_margin": float(chk.det_margin),
            "input_coefficient": float(chk.input_coefficient),
            "output_coefficient": float(chk.output_coefficient),
        })
    doc = {
        "plant": plant_doc,
        "spectrum": {
            "unstable_labels": [int(l) for l in part.unstable_indices],
            "retained_stable_labels": [int(l) for l in part.retained_stable_indices],
            "unstable_dim": int(part.unstable_dim),
            "margin_omega": float(part.margin_omega),
            "tail": {
                "decay_alpha": float(part.tail.decay_alpha),
                "input_norm": float(part.tail.input_norm),
                "output_graph_norm": float(part.tail.output_graph_norm),
                "amplitude_a": float(part.tail.amplitude_a),
            },
        },
        "modes": modes,
        "verdict": {
            "finite_unstable_part": True,
            "stabilizable": bool(report.stabilizable),
            "detectable": bool(report.detectable),
            "offending_stabilizable": [int(l) for l in report.offending_stabilizable],
            "offending_detectable": [int(l) for l in report.offending_detectable],
            "pass": bool(report.stabilizable and report.detectable),
        },
    }
    if lift is not None:
        doc["lift"] = {
            "a": float(lift.a),
            "kernel_index": int(lift.kernel_index),
            "h_at_0": float(lift.h_at_0),
            "u_output": float(lift.u_output),
            "series_remainder": float(lift.series_remainder),
            "constraints": {
                "all_pass": bool(lift.constraint_report.all_pass),
                "tolerance": float(lift.constraint_report.tolerance),
                "scale": float(lift.constraint_report.scale),
                "entries": [{
                    "name": e.name, "k": int(e.k),
                    "value": float(e.value), "passed": bool(e.passed),
                } for e in lift.constraint_report.entries],
            },
        }
    return doc


def write_certificate(out_dir: str, cert):
    doc = cert.to_document()
    fileio.validate_document(doc, "certificate")
    fileio.write_json_atomic(os.path.join(out_dir, "certificate.json"), doc)


def _write_controller(out_dir: str, controller: ObserverController, truncated: StateSpaceSystem):
    doc = controller_to_doc(controller, truncated.m, truncated.p)
    fileio.validate_document(doc, "controller")
    fileio.write_json_atomic(os.path.join(out_dir, "controller.json"), doc)


def cmd_analyze(cfg: dict, out_dir: str) -> int:
    sys_, lift = build_plant(cfg["plant"])
    part = partition_spectrum(sys_)
    report = check_stabilizable(sys_)
    doc = analysis_document(cfg["plant"], sys_, part, report, lift)
    fileio.write_json_atomic(os.path.join(out_dir, "analysis.json"), doc)
    v = doc["verdict"]
    print("analyze: finite_unstable_part=yes"
          f" stabilizable={'yes' if v['stabilizable'] else 'no'}"
          f" detectable={'yes' if v['detectable'] else 'no'}"
          f" unstable_dim={part.unstable_dim}")
    return EXIT_OK


def _require_synthesizable(report):
    if not report.stabilizable:
        raise NotStabilizable(
            f"unstable modes {list(report.offending_stabilizable)} are unreachable from the input")
    if not report.detectable:
        raise NotDetectable(
            f"unstable modes {list(report.offending_detectable)} are invisible at the output")


def _epsilon_halving(sys_: ModalSystem, epsilon: float):
    """Candidate truncation orders from repeatedly halving the tail budget."""
    count = len(sys_.blocks)
    for j in range(MAX_EPSILON_HALVINGS):
        try:
            N = select_truncation(sys_, epsilon / 2.0 ** j)
        except NotReachable:
            yield count
            return
        yield N
        if N >= count:
            return
    yield count


def _prefix_design(sys_: ModalSystem, part, margin_fraction: float):
    """The controller over the unstable prefix and the bounds of its reduced loop.

    Neither depends on the truncation order, so one serves every candidate N.
    """
    prefix, _tail = truncate(sys_, sys_.n_unstable)
    design = synthesize_controller(part, prefix)
    return design, loop_bounds(_controller_loop(prefix, design), margin_fraction)


def _write_design(out_dir: str, sys_: ModalSystem, design: ObserverController, cert):
    truncated, _tail = truncate(sys_, cert.truncation_N)
    controller = observer_controller(truncated, design.K_u, design.L_u, design.info)
    _write_controller(out_dir, controller, truncated)
    write_certificate(out_dir, cert)


def cmd_synthesize(cfg: dict, out_dir: str) -> int:
    sys_, lift = build_plant(cfg["plant"])
    part = partition_spectrum(sys_)
    _require_synthesizable(check_stabilizable(sys_))

    if cfg.get("N") is not None:
        candidates = iter([int(cfg["N"])])
    else:
        candidates = _epsilon_halving(sys_, float(cfg["epsilon"]))

    design = best = None
    tried = set()
    for N in candidates:
        if N in tried:
            continue
        tried.add(N)
        tail = truncate_tail(sys_, N)
        if design is None:
            # after the first tail, so that an inadmissible N is reported first
            design, loop = _prefix_design(sys_, part, float(cfg["margin_fraction"]))
        cert = scan_certificate(tail, loop, N, depth=int(cfg["beta_depth"]))
        if cert.verdict == "Certified":
            _write_design(out_dir, sys_, design, cert)
            print(f"synthesize: Certified at N={N} beta={cert.beta:.9g} "
                  f"product={cert.product:.9g}")
            return EXIT_OK
        if best is None or cert.product < best.product:
            best = cert

    detail = ""
    if best is not None:
        _write_design(out_dir, sys_, design, best)
        detail = (f"; best product {best.product:.6g} at N={best.truncation_N}"
                  " (documents written for inspection)")
    raise CertificateNotFound(
        f"no truncation up to {len(sys_.blocks)} blocks certified; increase N_max{detail}")


def _plant_and_controller(cfg: dict, command: str):
    """Plant from the config and the controller its controller_file names."""
    path = cfg.get("controller_file")
    if not path:
        raise SchemaViolation(f"{command} requires controller_file in the config")
    sys_, _lift = build_plant(cfg["plant"])
    partition_spectrum(sys_)
    return sys_, controller_from_doc(fileio.read_json(path, "controller"))


def cmd_certify(cfg: dict, out_dir: str) -> int:
    sys_, controller = _plant_and_controller(cfg, "certify")
    cert, N = _recheck_certificate(sys_, controller, cfg)
    write_certificate(out_dir, cert)
    print(f"certify: {cert.verdict} at N={N} beta={cert.beta:.9g} product={cert.product:.9g}")
    return EXIT_OK if cert.verdict == "Certified" else EXIT_NO_CERTIFICATE


def _resolve_x0(cfg: dict, n: int) -> np.ndarray:
    requested = cfg.get("x0", "ones")
    if isinstance(requested, str):
        if n == 0:
            return np.zeros(0)
        if requested == "ones":
            return np.ones(n) / math.sqrt(n)
        if requested == "random":
            v = np.random.default_rng(int(cfg["seed"])).standard_normal(n)
            norm = float(np.linalg.norm(v))
            return v / norm if norm > 0 else v
        raise SchemaViolation(f"unknown x0 mode {requested!r}")
    v = np.asarray(requested, dtype=np.float64)
    if v.shape != (n,):
        raise ValueError(f"x0 has length {v.size}, plant truncation has dimension {n}")
    return v


def cmd_simulate(cfg: dict, out_dir: str) -> int:
    sys_, controller = _plant_and_controller(cfg, "simulate")
    # The certificate covers every truncation; the simulated one may be finer.
    cert, N_design = _recheck_certificate(sys_, controller, cfg)
    N = int(cfg["N"]) if cfg.get("N") is not None else N_design
    truncated, _tail = truncate(sys_, N)
    _check_io_dims(truncated, controller)

    x0 = _resolve_x0(cfg, truncated.n)
    traj = simulate_closed_loop(truncated, controller.as_state_space(), x0,
                                float(cfg["horizon"]), float(cfg["dt"]))
    abscissa, witness = spectral_abscissa(
        closed_loop_matrix(truncated, controller.as_state_space()))
    rate = estimate_decay_rate(traj)

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
        "final_norm": float(traj.state_norms()[-1]),
    }
    fileio.write_trajectory_csv(os.path.join(out_dir, "trajectory.csv"), traj, truncated.n)
    fileio.write_json_atomic(os.path.join(out_dir, "summary.json"), summary)
    print(f"simulate: decay_rate={rate:.9g} abscissa={abscissa:.9g} "
          f"certificate_beta={cert.beta:.9g} ({cert.verdict})")
    return EXIT_OK


def cmd_sweep(cfg: dict, out_dir: str) -> int:
    requested = cfg.get("sweep_N")
    if not requested:
        raise SchemaViolation("sweep requires a non-empty sweep_N list")
    sys_, lift = build_plant(cfg["plant"])
    part = partition_spectrum(sys_)
    _require_synthesizable(check_stabilizable(sys_))

    ns = sorted({int(N) for N in requested})
    for N in ns:
        if N < sys_.n_unstable or N > len(sys_.blocks):
            raise ValueError(
                f"sweep N={N} outside [{sys_.n_unstable}, {len(sys_.blocks)}]")

    _design, loop = _prefix_design(sys_, part, float(cfg["margin_fraction"]))
    if loop.env is None:
        raise NotHurwitz(loop.failure)
    # One beta for every row keeps the columns comparable: the most
    # permissive grid point admissible at the smallest N.
    alpha_min = min(truncate_tail(sys_, ns[0]).decay_alpha, loop.env.alpha)
    beta = alpha_min / 2.0 ** int(cfg["beta_depth"])

    rows = []
    for N in ns:
        cert = scan_certificate(truncate_tail(sys_, N), loop, N,
                                depth=int(cfg["beta_depth"]), fixed_beta=beta)
        rows.append((N, cert.gain_tail.value, cert.gain_R.value, cert.product, cert.verdict))
    fileio.write_sweep_csv(os.path.join(out_dir, "sweep.csv"), rows)
    certified = [r for r in rows if r[4] == "Certified"]
    first = f" first Certified at N={certified[0][0]}" if certified else ""
    print(f"sweep: {len(certified)}/{len(rows)} rows Certified{first}")
    return EXIT_OK


COMMANDS = {
    "analyze": cmd_analyze,
    "synthesize": cmd_synthesize,
    "certify": cmd_certify,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modalstab",
        description="Finite-dimensional stabilization toolkit for modal-form plants.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="run configuration JSON")
    common.add_argument("--out", default=".", help="directory for output documents")
    common.add_argument("--print-config", action="store_true",
                        help="echo the fully resolved configuration")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("analyze", parents=[common],
                   help="spectrum partition and mode-by-mode rank tests")
    sub.add_parser("synthesize", parents=[common],
                   help="design a certified observer controller")
    sub.add_parser("certify", parents=[common],
                   help="re-derive the certificate for an existing controller")
    sub.add_parser("simulate", parents=[common],
                   help="closed-loop trajectory and decay-rate summary")
    sub.add_parser("sweep", parents=[common],
                   help="certificates across a list of truncation orders")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.print_config:
            print(fileio.dumps_canonical(cfg))
        os.makedirs(args.out, exist_ok=True)
        # Overflow on huge schema-valid numbers surfaces as the command's own
        # error; numpy's warning lines would come before that one line.
        with np.errstate(all="ignore"):
            return COMMANDS[args.command](cfg, args.out)
    except Exception as exc:
        for classes, (code, prefix) in EXIT_CODES.items():
            if isinstance(exc, classes):
                print(f"{prefix}: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
