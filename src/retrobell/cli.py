"""Command-line front end.

Commands
--------
verify       run analytic checks (si, nosignal, recovery, kernel-norm) for a
             model over a settings grid
chsh         CHSH values: backward-model evaluation at given angles, dense
             quantum scan, deterministic-strategy enumeration, PR box
ghz-exhaust  enumerate the 64 classical assignments against the four GHZ
             product constraints
sample       seeded Monte Carlo postselection with an empirical-vs-exact
             report
emit-curve   CSV correlation curve for plotting

Angles are radians everywhere; there is no degrees flag.  Every JSON report
embeds the tool version, backend, seed (when one is used), tolerance, and
the fully resolved configuration.  Exit codes are stable: 0 all checks pass,
1 a verification failed, 2 usage error, 3 runtime or sampling failure.

A config file of ``key=value`` lines (``--config FILE``) supplies defaults;
explicit command-line flags win.  The RETROBELL_SEED environment variable
supplies the default seed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import sys
from typing import TYPE_CHECKING

from . import __version__
from .quantum import MAX_SCAN_RESOLUTION, MIN_SCAN_RESOLUTION, bell_expectation
from .reports import FLOAT_TOL, as_number, jsonable

if TYPE_CHECKING:
    from .backward import BackwardModel


def _on_call(module: str, name: str):
    """``module.name``, imported when first called, so each command loads only
    the modules it runs: the commands that build no model never load
    ``backward``, ``dist`` or ``sampling``, and a command loads ``chsh`` or
    ``ghz`` only when it calls into it.  The entry points stay module globals
    that the handlers look up at call time, because ``bench/tracing.py``
    replaces them here by name."""
    return lambda *args, **kwargs: getattr(
        importlib.import_module(module, __package__), name)(*args, **kwargs)


bell_backward_model = _on_call(".backward", "bell_backward_model")
default_grid = _on_call(".backward", "default_grid")
pr_backward_model = _on_call(".backward", "pr_backward_model")
signalling_counterexample_model = _on_call(".backward", "signalling_counterexample_model")
verify_no_signalling_all = _on_call(".backward", "verify_no_signalling_all")
backward_model_chsh = _on_call(".chsh", "backward_model_chsh")
lhv_max_chsh = _on_call(".chsh", "lhv_max_chsh")
quantum_chsh_scan = _on_call(".chsh", "quantum_chsh_scan")
classical_assignment_exhaustion = _on_call(".ghz", "classical_assignment_exhaustion")
ghz_backward_model = _on_call(".ghz", "ghz_backward_model")
sample_postselected = _on_call(".sampling", "sample_postselected")

ENV_SEED = "RETROBELL_SEED"

#: Largest ``verify --grid``: memory grows as grid**2, and ``verify --model bell
#: --grid 256`` peaks at ~57 MiB RSS (x86-64), 8 MiB of it the kernel tensor
#: (bell's kernel is its target table, so recovery reads the same 8 MiB, and
#: the checks keep no other table of its size).
MAX_GRID = 256

#: Largest ``emit-curve --points``: each row costs a few microseconds and
#: about 60 bytes, so the curve stays under a second and ~6 MB.
MAX_CURVE_POINTS = 100_000

#: Largest ``sample --threads``.  Each shard holds its own generator and
#: tallies, so the bound keeps that memory small whatever ``--n`` is.
MAX_THREADS = 256

MODEL_BUILDERS = {
    "bell": bell_backward_model,
    "ghz": ghz_backward_model,
    "prbox": pr_backward_model,
    "counterexample": signalling_counterexample_model,
}

CHECK_ALIASES = {
    "si": "si",
    "nosignal": "no_signalling",
    "no-signalling": "no_signalling",
    "no_signalling": "no_signalling",
    "recovery": "recovery",
    "kernel-norm": "kernel_norm",
    "kernel_norm": "kernel_norm",
}


class UsageError(Exception):
    """Invalid flag combination or value; maps to exit code 2."""


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _check_backend_flag(args, name: str, backend: str) -> None:
    """``--backend`` must name the backend ``name`` runs on, if it is given."""
    if args.backend in (None, backend):
        return
    if backend == "float":
        raise UsageError(f"{name} is angle-dependent; the rational backend is "
                         "only available for ghz and prbox")
    raise UsageError(f"{name} runs on the {backend} backend")


def _default_seed(value) -> int:
    if value is None:
        env = os.environ.get(ENV_SEED)
        try:
            value = int(env) if env else 0
        except ValueError:
            raise UsageError(f"${ENV_SEED} must be an integer, got {env!r}") from None
    if value < 0:
        raise UsageError(f"the seed (--seed or ${ENV_SEED}) must be non-negative, got {value}")
    if value >= 2**64:
        raise UsageError(f"the seed (--seed or ${ENV_SEED}) must be below 2**64, got {value}")
    return value


def _resolve_label(model: BackwardModel, token: str) -> str:
    token = str(token)
    if token in model.lam.labels:
        return token
    alias = {"bar": "lambda_bar", "pr": "lambda_pr"}.get(token, f"lambda{token}")
    if alias in model.lam.labels:
        return alias
    raise UsageError(
        f"unknown label {token!r} for model {model.name!r}; "
        f"have {list(model.lam.labels)}"
    )


def _parse_list(text: str, count: int, what: str, binary: bool = False) -> list:
    """``count`` comma-separated finite floats, or 0/1 ints when ``binary``."""
    parts = [field.strip() for field in text.split(",")]
    if not all(parts):
        raise UsageError(f"{what} has an empty field: {text!r}")
    if len(parts) != count:
        raise UsageError(f"{what} needs {count} comma-separated values")
    if binary:
        for p in parts:
            if p not in ("0", "1"):
                raise UsageError(f"{what} values must be 0 or 1, got {p!r}")
        return [int(p) for p in parts]
    try:
        values = [float(p) for p in parts]
    except ValueError as e:
        raise UsageError(f"bad {what}: {e}") from None
    if not all(map(math.isfinite, values)):
        raise UsageError(f"{what} values must be finite")
    return values


def _check_bell_pairs(pairs, flags: str) -> None:
    """bell takes cos(a1 - a2) and cos(a1 + a2); an overflowing pair is a usage error."""
    for a1, a2 in pairs:
        if not (math.isfinite(a1 - a2) and math.isfinite(a1 + a2)):
            raise UsageError(f"{flags}: the difference or sum of {a1!r} and {a2!r} overflows")


def _model_settings_from_args(model: BackwardModel, args) -> tuple:
    angle_wings = all(w.setting_kind == "angle" for w in model.wings)
    if angle_wings:
        if args.settings is not None:
            raise UsageError(
                f"--settings is for binary-setting models; {model.name} takes "
                "--alpha1/--alpha2"
            )
        if args.alpha1 is None or args.alpha2 is None:
            raise UsageError(f"{model.name} needs --alpha1 and --alpha2 (radians)")
        if not (math.isfinite(args.alpha1) and math.isfinite(args.alpha2)):
            raise UsageError("--alpha1 and --alpha2 must be finite")
        if model.name == "bell":
            _check_bell_pairs([(args.alpha1, args.alpha2)], "--alpha1 and --alpha2")
        return (args.alpha1, args.alpha2)
    if args.alpha1 is not None or args.alpha2 is not None:
        raise UsageError(
            f"angle flags are for bell/counterexample; {model.name} takes "
            "--settings (binary)"
        )
    if args.settings is None:
        raise UsageError(f"{model.name} needs --settings, e.g. 0,1,1")
    return tuple(_parse_list(args.settings, len(model.wings), "--settings", binary=True))


def _render_human(obj, path: str = "") -> list[str]:
    """One ``key = value`` line per leaf of a JSON value, the key its dotted
    path; ``path`` holds a leading dot that the leaf line drops."""
    if not isinstance(obj, (dict, list)):
        return [f"{path[1:]} = {obj}"]
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    return [line for k, v in items for line in _render_human(v, f"{path}.{k}")]


def _write(args, what: str, write) -> None:
    """Call ``write`` on the ``--output`` file, then say so on stdout; with no
    ``--output``, call it on stdout."""
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            write(fh)
        print(f"{what} written to {args.output}")
    else:
        write(sys.stdout)


def _emit(args, command: str, config: dict, results, csv_rows, *,
          backend: str, tolerance, seed: int | None = None) -> None:
    """Write the command's report in ``--format`` to ``--output`` or stdout;
    ``csv_rows`` maps the report's JSON results to its CSV rows."""
    envelope = {
        "tool": "retrobell",
        "version": __version__,
        "command": command,
        "backend": backend,
        "seed": seed,
        "tolerance": as_number(tolerance),
        "config": jsonable(config),
        "results": jsonable(results),
    }
    if args.format == "csv":
        import csv

        rows = csv_rows(envelope["results"])
        return _write(args, "report", lambda f: csv.writer(f, lineterminator="\n").writerows(rows))
    text = (json.dumps(envelope, indent=2, allow_nan=False) if args.format == "json"
            else "\n".join(_render_human(envelope))) + "\n"
    _write(args, "report", lambda f: f.write(text))


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    if not 1 <= args.grid <= MAX_GRID:
        raise UsageError(f"--grid must be between 1 and {MAX_GRID}, got {args.grid}")
    model = MODEL_BUILDERS[args.model]()
    _check_backend_flag(args, f"model {model.name!r}", model.backend)

    if args.checks is not None:
        if not args.checks.strip():
            raise UsageError("--checks is empty; name one or more of "
                             "si,nosignal,recovery,kernel-norm")
        requested = []
        for raw in args.checks.split(","):
            raw = raw.strip()
            if raw not in CHECK_ALIASES:
                raise UsageError(f"unknown check {raw!r}")
            if CHECK_ALIASES[raw] in requested:
                raise UsageError(f"--checks names the {CHECK_ALIASES[raw]} check twice")
            requested.append(CHECK_ALIASES[raw])
    else:
        requested = ["si", "no_signalling", "kernel_norm"]
        if model.quantum_targets:
            requested.append("recovery")

    if "recovery" in requested and not model.quantum_targets:
        raise UsageError(
            f"model {model.name!r} has no closed-form target; the recovery "
            "check does not apply"
        )

    grid = model.tabulate(default_grid(model, args.grid))
    # looked up per call, so what bench/tracing.py patches after import is what runs
    checks = {"si": model.verify_si, "no_signalling": lambda g: verify_no_signalling_all(model, g),
              "kernel_norm": model.verify_kernel_normalization, "recovery": model.verify_recovery}
    reports = [checks[c](grid) for c in requested]

    results = [r.to_json_dict() for r in reports]
    columns = ["check", "pass", "max_deviation", "tolerance", "backend"]
    _emit(args, "verify",
          {"model": args.model, "checks": requested, "grid": args.grid,
           "grid_points": len(grid)},
          results, lambda rs: [columns] + [[r[c] for c in columns] for r in rs],
          backend=model.backend, tolerance=model.tolerance)
    return 0 if all(r["pass"] for r in results) else 1


# ---------------------------------------------------------------------------
# chsh
# ---------------------------------------------------------------------------


def cmd_chsh(args) -> int:
    from .chsh import PR_BOX_CONFIG, REFERENCE_BOUNDS, ChshConfig

    if args.lhv:
        given = {"--model": args.model, "--state": args.state, "--angles": args.angles,
                 "--settings": args.settings, "--scan": args.scan or None}
        stray = next((flag for flag, value in given.items() if value is not None), None)
        if stray:
            raise UsageError(f"--lhv enumerates the deterministic strategies; {stray} "
                             "does not apply")
        _check_backend_flag(args, "chsh --lhv", "rational")
        value = lhv_max_chsh()
        result = {
            "mode": "lhv_max",
            "S_max": value,
            "strategies": 16,
            "bounds": REFERENCE_BOUNDS,
        }
        _emit(args, "chsh", {"lhv": True}, result,
              lambda r: [["mode", "S_max"], ["lhv_max", r["S_max"]]],
              backend="rational", tolerance=0)
        return 0

    if args.model is None:
        raise UsageError("chsh needs --model (or --lhv)")

    if args.model == "prbox":
        if args.angles is not None or args.scan:
            raise UsageError("prbox takes binary settings; --angles/--scan do "
                             "not apply")
        if args.state is not None:
            raise UsageError("prbox has no Bell state; --state is for bell")
        model = pr_backward_model()
        _check_backend_flag(args, f"model {model.name!r}", model.backend)
        if args.settings is not None:
            config = ChshConfig(*_parse_list(args.settings, 4, "--settings", binary=True))
        else:
            config = PR_BOX_CONFIG
        label, args_config = "lambda_pr", {"model": "prbox"}
    else:
        if args.settings is not None:
            raise UsageError("--settings is for prbox; bell takes --angles")
        _check_backend_flag(args, "model 'bell'", "float")
        state = 1 if args.state is None else args.state
        if args.scan:
            if args.angles is not None:
                raise UsageError("--scan chooses the angles itself; drop --angles")
            if not MIN_SCAN_RESOLUTION <= args.resolution <= MAX_SCAN_RESOLUTION:
                raise UsageError(
                    f"--resolution must be between {MIN_SCAN_RESOLUTION} and "
                    f"{MAX_SCAN_RESOLUTION}, got {args.resolution}")
            report = quantum_chsh_scan(state, args.resolution)
            result = report.to_json_dict()
            result["bounds"] = REFERENCE_BOUNDS
            _emit(args, "chsh",
                  {"model": "bell", "state": state, "scan": True,
                   "resolution": args.resolution},
                  result,
                  lambda r: [["mode", "max_S", "argmax"],
                             ["scan", r["max_S"], " ".join(map(repr, r["argmax"]))]],
                  backend="float", tolerance=FLOAT_TOL)
            return 0
        if args.angles is None:
            raise UsageError("chsh --model bell needs --angles a1,a1p,a2,a2p or "
                             "--scan")
        vals = _parse_list(args.angles, 4, "--angles")
        _check_bell_pairs([(a1, a2) for a1 in vals[:2] for a2 in vals[2:]], "--angles")
        config = ChshConfig(*vals)
        model = bell_backward_model()
        label = f"lambda{state}"
        args_config = {"model": "bell", "state": state, "angles": vals}

    value = backward_model_chsh(model, label, config)
    result = {
        "mode": "backward_model",
        "model": args.model,
        "label": label,
        "config": list(config),
        "S": value,
        "bounds": REFERENCE_BOUNDS,
    }
    _emit(args, "chsh", args_config, result, lambda r: [["mode", "S"], ["backward_model", r["S"]]],
          backend=model.backend, tolerance=model.tolerance)
    return 0


# ---------------------------------------------------------------------------
# ghz-exhaust
# ---------------------------------------------------------------------------


def cmd_ghz_exhaust(args) -> int:
    _check_backend_flag(args, "ghz-exhaust", "rational")
    report = classical_assignment_exhaustion(
        include_near_misses=args.list_near_misses
    )
    _emit(args, "ghz-exhaust", {"list_near_misses": bool(args.list_near_misses)},
          report.to_json_dict(),
          lambda r: [["constraint", "satisfying_count"],
                     *zip(r["constraints"], r["per_constraint"]), ["ALL", r["satisfying_all"]]],
          backend="rational", tolerance=0)
    return 0 if report.satisfying_all == 0 else 1


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------


def cmd_sample(args) -> int:
    for flag, value in (("--n", args.n), ("--threads", args.threads),
                        ("--cap-factor", args.cap_factor)):
        if value < 1:
            raise UsageError(f"{flag} must be at least 1, got {value}")
    if args.threads > MAX_THREADS:
        raise UsageError(f"--threads must be at most {MAX_THREADS}, got {args.threads}")
    model = MODEL_BUILDERS[args.model]()
    _check_backend_flag(args, f"model {model.name!r}", model.backend)
    label = _resolve_label(model, args.label)
    settings = _model_settings_from_args(model, args)
    seed = _default_seed(args.seed)
    from .sampling import AcceptanceCapError

    try:
        report = sample_postselected(
            model,
            label,
            settings,
            args.n,
            seed,
            cap_factor=args.cap_factor,
            shards=args.threads,
        )
    except AcceptanceCapError as e:
        print(f"sampling failure: {e}", file=sys.stderr)
        return 3
    _emit(args, "sample",
          {"model": args.model, "label": label, "settings": list(settings), "n": args.n,
           "cap_factor": args.cap_factor, "threads": args.threads},
          report.to_json_dict(),
          lambda r: [["assignment", "exact_p", "empirical_p", "count", "z"]]
          + [[" ".join(map(str, c["assignment"])), c["exact_p"], c["empirical_p"], c["count"],
              c["z"]] for c in r["cells"]],
          backend=model.backend, tolerance=model.tolerance, seed=seed)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# emit-curve
# ---------------------------------------------------------------------------


def cmd_emit_curve(args) -> int:
    if not 2 <= args.points <= MAX_CURVE_POINTS:
        raise UsageError(
            f"--points must be between 2 and {MAX_CURVE_POINTS}, got {args.points}")
    _write(args, "curve", lambda fh: _write_curve(fh, args.state, args.points))
    return 0


def _write_curve(fh, state: int, points: int) -> None:
    """Stream the curve's CSV rows to ``fh``, one row at a time."""
    import csv

    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["alpha1", "alpha2", "alpha_diff", "expectation"])
    for k in range(points):
        diff = 2.0 * math.pi * k / points
        e = bell_expectation(state, diff, 0.0)
        writer.writerow([repr(diff), repr(0.0), repr(diff), repr(e)])


# ---------------------------------------------------------------------------
# Parser and entry points
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv", "human"), default="json")
    p.add_argument("--output", help="write the report to this path")
    p.add_argument("--config", help="key=value defaults file; flags win")
    p.add_argument("--backend", choices=("rational", "float"),
                   help="the backend the command runs on; any other is an error")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="retrobell",
        description="Backward-conditional collider models: verification, "
                    "CHSH bounds, GHZ exhaustion, Monte Carlo replay. "
                    "All angles are radians.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run analytic model checks over a grid")
    p.add_argument("--model", required=True, choices=sorted(MODEL_BUILDERS))
    p.add_argument("--checks",
                   help="comma list of si,nosignal,recovery,kernel-norm "
                        "(default: all applicable)")
    p.add_argument("--grid", type=int, default=16,
                   help=f"angles per wing for angle models, 1 to {MAX_GRID} "
                        "(default 16)")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("chsh", help="CHSH values and bounds")
    p.add_argument("--model", choices=("bell", "prbox"))
    p.add_argument("--state", type=int, choices=(1, 2, 3, 4))
    p.add_argument("--angles", help="alpha1,alpha1',alpha2,alpha2' in radians")
    p.add_argument("--settings", help="binary CHSH slots for prbox, e.g. 1,0,0,1")
    p.add_argument("--scan", action="store_true",
                   help="dense quantum angle scan instead of one evaluation")
    p.add_argument("--resolution", type=int, default=16,
                   help=f"angles per wing for --scan, {MIN_SCAN_RESOLUTION} to "
                        f"{MAX_SCAN_RESOLUTION} (default 16)")
    p.add_argument("--lhv", action="store_true",
                   help="maximum over the 16 deterministic strategies")
    _add_common(p)
    p.set_defaults(func=cmd_chsh)

    p = sub.add_parser("ghz-exhaust",
                       help="enumerate classical assignments against the GHZ "
                            "constraints")
    p.add_argument("--list-near-misses", action="store_true",
                   help="include the assignments satisfying exactly three "
                        "constraints")
    _add_common(p)
    p.set_defaults(func=cmd_ghz_exhaust)

    p = sub.add_parser("sample", help="seeded Monte Carlo postselection")
    p.add_argument("--model", required=True, choices=sorted(MODEL_BUILDERS))
    p.add_argument("--label", required=True,
                   help="target hidden label (e.g. 1..4, 0, pr, bar)")
    p.add_argument("--alpha1", type=float, help="wing-1 angle (radians)")
    p.add_argument("--alpha2", type=float, help="wing-2 angle (radians)")
    p.add_argument("--settings", help="binary settings, e.g. 0,1,1")
    p.add_argument("--n", type=int, required=True,
                   help="postselected runs to accept")
    p.add_argument("--seed", type=int,
                   help=f"64-bit seed (default ${ENV_SEED} or 0)")
    # sampling.DEFAULT_CAP_FACTOR, which a test pins: start-up does not import sampling
    p.add_argument("--cap-factor", type=int, default=100,
                   help="total-draw cap as a multiple of n (default %(default)s)")
    p.add_argument("--threads", type=int, default=1,
                   help=f"sampling shards, 1 to {MAX_THREADS}, run on at most one "
                        "thread per usable CPU; 1 is the bit-exact baseline")
    _add_common(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("emit-curve", help="CSV correlation curve E(alpha1-alpha2)")
    p.add_argument("--state", type=int, choices=(1, 2, 3, 4), default=1)
    p.add_argument("--points", type=int, default=64,
                   help=f"curve rows, 2 to {MAX_CURVE_POINTS} (default 64)")
    p.add_argument("--output", help="CSV path (default stdout)")
    p.add_argument("--config", help="key=value defaults file; flags win")
    p.set_defaults(func=cmd_emit_curve)

    return parser


def _expand_config_tokens(argv: list[str]) -> list[str]:
    """Take the ``--config`` pair out wherever it stands and insert the
    file's tokens right after the command name, so flags win."""
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            path, argv = argv[i + 1], argv[:i] + argv[i + 2:]
            break
        if tok.startswith("--config="):
            path, argv = tok.split("=", 1)[1], argv[:i] + argv[i + 1:]
            break
    else:
        return argv
    if not os.path.exists(path):
        raise UsageError(f"config file not found: {path}")
    tokens: list[str] = []
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(f"bad config line (want key=value): {line!r}")
                key, value = (part.strip() for part in line.split("=", 1))
                flag = f"--{key}"
                if value.lower() == "true":
                    tokens.append(flag)
                elif value.lower() == "false":
                    continue
                else:  # one token, so a value such as -1e-3 is not read as a flag
                    tokens.append(f"{flag}={value}")
    except (OSError, UnicodeDecodeError) as e:
        reason = getattr(e, "strerror", None) or e
        raise UsageError(f"cannot read config file {path}: {reason}") from None
    # a second --config, on the command line or as a key of the file
    if any(tok == "--config" or tok.startswith("--config=") for tok in argv + tokens):
        raise UsageError("--config may be given only once")
    return argv[:1] + tokens + argv[1:]


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(
            _expand_config_tokens(list(sys.argv[1:] if argv is None else argv)))
        return args.func(args)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as e:
        print(f"runtime failure: {e}", file=sys.stderr)
        return 3


def console_main() -> None:
    # numpy's OpenBLAS starts a thread pool when numpy loads, and no command
    # calls BLAS; a value the user set wins.  numpy has not loaded yet here.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.exit(main())


if __name__ == "__main__":
    console_main()
