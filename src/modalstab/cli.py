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
error, and any OS, value, key, arithmetic or memory error, exits 2.
"""

from __future__ import annotations

import argparse
import functools
import gc
import math
import os
import sys

import numpy as np

from . import fileio, simulate
from .errors import (BetaExceedsDecay, CertificateNotFound, DimensionMismatch,
                     InfiniteUnstablePart, LyapunovSolveFailed, ModalToolkitError,
                     NotDetectable, NotHurwitz, NotReachable, NotStabilizable,
                     RiccatiDivergence)
from .fileio import SchemaViolation
from .gains import BETA_GRID_DEPTH, beta_grid, controller_loop_bounds, scan_certificate
from .modal import (ModalSystem, closed_loop_matrix, partition_spectrum, select_truncation,
                    truncate, truncate_tail)
from .plants import DEFAULT_N_MAX, SourceProfile, build_heat, build_heat_boundary, build_wave
from .synthesis import (DesignInfo, DesignTruncation, ObserverController, check_stabilizable,
                        matches_observer_structure, observer_controller, synthesize_controller)

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
    (NotStabilizable, NotDetectable, RiccatiDivergence, NotHurwitz):
        (EXIT_SYNTHESIS, "synthesis failed"),
    (DimensionMismatch,): (EXIT_DIMENSION, "dimension mismatch"),
    (ModalToolkitError, OSError, ValueError, KeyError, ArithmeticError, MemoryError):
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
# DesignInfo's fields, in the controller document's order
_DESIGN_KEYS = ("feedback_rate", "observer_rate", "feedback_residual", "observer_residual")


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
    return build_heat_boundary(float(doc["b"]), f, doc.get("a_grid"), n_max)


def controller_to_doc(controller: ObserverController, inputs: int, outputs: int) -> dict:
    return {
        **{name: fileio.matrix_to_doc(getattr(controller, name)) for name in "EFG"},
        "dims": {
            "n_unstable": int(controller.n_unstable),
            "n_retained": int(controller.n_retained),
            "inputs": int(inputs),
            "outputs": int(outputs),
        },
        "design": {name: float(getattr(controller.info, name)) for name in _DESIGN_KEYS},
    }


def controller_from_doc(doc: dict) -> ObserverController:
    dims = doc["dims"]
    n_u = int(dims["n_unstable"])
    n = n_u + int(dims["n_retained"])
    E = fileio.matrix_from_doc(doc["E"], n, n)
    F = fileio.matrix_from_doc(doc["F"], n, int(dims["outputs"]))
    G = fileio.matrix_from_doc(doc["G"], int(dims["inputs"]), n)
    return ObserverController(
        E=E, F=F, G=G, n_unstable=n_u, n_retained=int(dims["n_retained"]),
        info=DesignInfo(*(float(doc["design"][name]) for name in _DESIGN_KEYS)))


def _recheck_certificate(sys_: ModalSystem, controller: ObserverController, cfg: dict):
    """(certificate, design) for an imported controller at its own design
    truncation, with design its fit ``matches_observer_structure``; the fit
    decides which loop the certificate bounds (``controller_loop_bounds``)."""
    design = matches_observer_structure(sys_, controller)
    loop = controller_loop_bounds(sys_, design, controller, float(cfg["margin_fraction"]))
    tail = truncate_tail(sys_, design.N)
    return scan_certificate(tail, loop, design.N, depth=int(cfg["beta_depth"])), design


def analysis_document(plant_doc: dict, sys_: ModalSystem, part, report, lift) -> dict:
    stable = (1.0,) * (len(sys_) - sys_.n_unstable)  # no rank test, the most a margin can be
    modes = [{
        "label": label,
        "dim": dim,
        "unstable": i < sys_.n_unstable,
        "eigenvalues": [{"re": float(z.real), "im": float(z.imag)} for z in sys_.eigenvalues(i)],
        "stabilizable": label not in report.offending_stabilizable,
        "detectable": label not in report.offending_detectable,
        "stab_margin": stab_margin,
        "det_margin": det_margin,
        "input_coefficient": b_norm,
        "output_coefficient": c_norm,
    } for i, (label, dim, stab_margin, det_margin, b_norm, c_norm) in enumerate(zip(
        sys_.labels.tolist(), sys_.dims.tolist(), report.stab_margins + stable,
        report.det_margins + stable, sys_.input_norms.tolist(), sys_.output_norms.tolist()))]
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
    """The unstable prefix of a report that passes both rank tests."""
    if not report.stabilizable:
        raise NotStabilizable(
            f"unstable modes {list(report.offending_stabilizable)} are unreachable from the input")
    if not report.detectable:
        raise NotDetectable(
            f"unstable modes {list(report.offending_detectable)} are invisible at the output")
    return report.prefix


def _epsilon_halving(sys_: ModalSystem, epsilon: float) -> list:
    """The distinct truncation orders picked by halving the tail budget until
    one keeps every block or the budget underflows, then ``len(sys_)``."""
    orders = {}
    for j in range(MAX_EPSILON_HALVINGS):
        budget = epsilon / 2.0 ** j
        try:
            N = select_truncation(sys_, budget) if budget > 0.0 else len(sys_)
        except NotReachable:
            break
        if N >= len(sys_):
            break
        orders[N] = None
    return [*orders, len(sys_)]


def _prefix_design(cfg: dict, orders=None):
    """(plant, {N: tail}, controller, its ``controller_loop_bounds``): the one
    design path of ``synthesize`` and ``sweep``.  The controller is designed on
    the unstable prefix alone, so it serves every truncation order.  The tail
    of each of ``orders`` (default ``_epsilon_halving``'s) is taken first, so
    ``truncate_tail`` rejects an inadmissible order before any design.
    Raises ``NotHurwitz`` when the loop is not exponentially stable."""
    sys_, _lift = build_plant(cfg["plant"])
    part = partition_spectrum(sys_)
    prefix = _require_synthesizable(check_stabilizable(sys_))
    if orders is None:
        orders = _epsilon_halving(sys_, float(cfg["epsilon"]))
    tails = {N: truncate_tail(sys_, N) for N in orders}
    design = synthesize_controller(part, prefix)
    fit = DesignTruncation(sys_.n_unstable, prefix, sys_.n_unstable)
    loop = controller_loop_bounds(sys_, fit, design, float(cfg["margin_fraction"]))
    if loop.env is None:
        raise NotHurwitz(f"controller loop is not exponentially stable: {loop.failure}")
    return sys_, tails, design, loop


def _write_design(out_dir: str, sys_: ModalSystem, design: ObserverController, cert):
    truncated, _tail = truncate(sys_, cert.truncation_N)
    doc = controller_to_doc(observer_controller(truncated, design.K_u, design.L_u, design.info),
                            truncated.m, truncated.p)
    fileio.validate_document(doc, "controller")
    fileio.write_json_atomic(os.path.join(out_dir, "controller.json"), doc)
    write_certificate(out_dir, cert)


def cmd_synthesize(cfg: dict, out_dir: str) -> int:
    orders = None if cfg.get("N") is None else [int(cfg["N"])]
    sys_, tails, design, loop = _prefix_design(cfg, orders)
    certs = []
    for N, tail in tails.items():
        cert = scan_certificate(tail, loop, N, depth=int(cfg["beta_depth"]))
        if cert.verdict == "Certified":
            _write_design(out_dir, sys_, design, cert)
            print(f"synthesize: Certified at N={N} beta={cert.beta:.9g} "
                  f"product={cert.product:.9g}")
            return EXIT_OK
        certs.append(cert)
    best = min(certs, key=lambda cert: cert.product)
    _write_design(out_dir, sys_, design, best)
    raise CertificateNotFound(
        f"no truncation up to {len(sys_)} blocks certified; increase N_max; best product "
        f"{best.product:.6g} at N={best.truncation_N} (documents written for inspection)")


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
    cert, _design = _recheck_certificate(sys_, controller, cfg)
    write_certificate(out_dir, cert)
    print(f"certify: {cert.verdict} at N={cert.truncation_N} beta={cert.beta:.9g} "
          f"product={cert.product:.9g}")
    return EXIT_OK if cert.verdict == "Certified" else EXIT_NO_CERTIFICATE


def _resolve_x0(cfg: dict, n: int) -> np.ndarray:
    requested = cfg.get("x0", "ones")
    if isinstance(requested, str):
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
    cert, design = _recheck_certificate(sys_, controller, cfg)
    N = int(cfg["N"]) if cfg.get("N") is not None else cert.truncation_N
    if N == 0:  # only a controller of no states sets it; the config's N is >= 1
        raise ValueError("a loop with no states has no trajectory; set N >= 1")
    # the fit's truncation serves its own N; the certificate has checked the
    # inputs and outputs, and the loop is triangular only on the fit's k_u
    at_design = N == design.N
    truncated = design.truncated if at_design else truncate(sys_, N)[0]
    loop = simulate.observer_loop(sys_, design, controller) if at_design else None

    x0 = _resolve_x0(cfg, truncated.n)
    T, dt = float(cfg["horizon"]), float(cfg["dt"])
    rows = int(round(T / dt)) + 1    # grid times, t = 0 included
    if rows < 2:
        raise ValueError(f"horizon {T:g} with dt {dt:g} gives a time grid of {rows} row; "
                         "simulate needs at least 2")
    if loop is None:
        controller_ss = controller.as_state_space()
        M = closed_loop_matrix(truncated, controller_ss)
        abscissa, witness = simulate.spectral_abscissa(M)
        trajectory = simulate.closed_loop_blocks(M, truncated, controller_ss, x0, T, dt)
    else:
        abscissa, witness = loop.abscissa, loop.witness
        trajectory = loop.blocks(x0, T, dt)
    rate = final_norm = None

    def blocks():
        nonlocal rate, final_norm
        norms = []
        for block in trajectory:
            norms.append(simulate.row_norms(block.states))
            yield block
        norms = np.concatenate(norms)
        # still inside the write: a failed fit leaves no trajectory.csv
        rate = simulate.fit_decay_rate(np.arange(len(norms)) * dt, norms)
        final_norm = norms[-1]

    fileio.write_trajectory_csv(os.path.join(out_dir, "trajectory.csv"), blocks(), truncated.n)
    summary = {
        "N": int(N),
        "plant_dim": int(truncated.n),
        "controller_dim": int(controller.n),
        "horizon": T,
        "dt": dt,
        "decay_rate": float(rate),
        "spectral_abscissa": float(abscissa),
        "abscissa_witness": {"re": float(witness.real), "im": float(witness.imag)},
        "certificate_beta": float(cert.beta),
        "certificate_verdict": cert.verdict,
        "final_norm": float(final_norm),
    }
    fileio.write_json_atomic(os.path.join(out_dir, "summary.json"), summary)
    print(f"simulate: decay_rate={rate:.9g} abscissa={abscissa:.9g} "
          f"certificate_beta={cert.beta:.9g} ({cert.verdict})")
    return EXIT_OK


def cmd_sweep(cfg: dict, out_dir: str) -> int:
    requested = cfg.get("sweep_N")
    if not requested:
        raise SchemaViolation("sweep requires a non-empty sweep_N list")
    _plant, tails, _design, loop = _prefix_design(cfg, sorted({int(N) for N in requested}))
    # One beta for every row keeps the columns comparable: the most
    # permissive grid point admissible at every N.  The loop's alpha is
    # capped by every block outside the prefix, so by each row's tail too.
    beta = beta_grid(loop.alpha, int(cfg["beta_depth"]))[-1]

    rows = []
    for N, tail in tails.items():
        cert = scan_certificate(tail, loop, N, depth=int(cfg["beta_depth"]), fixed_beta=beta)
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


@functools.cache  # parse_args leaves the parser as it found it
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


def run() -> int:
    """The process entry: ``main()``, the imported modules frozen out of the GC's exit passes."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
