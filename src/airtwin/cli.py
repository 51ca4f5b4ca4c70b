"""Command-line front door: build / calibrate / validate / optimize / evaluate / synth.

Every run writes a manifest (command, inputs, overrides, seed, version) into
the output directory before any result file, and all outputs are
deterministic given (inputs, seed): dB values are printed with 4 decimals and
JSON keys are sorted, so reruns are byte-identical.

Exit codes: 0 success, 2 input error (including an unreadable or unwritable
path), 3 computation error (including running out of memory).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings

import numpy as np

from . import __version__
from .errors import AirtwinError, InputError
from .interference import build_sinr_field, export_sinr_csv, sinr_from_field
from .measurements import load_measurements, save_measurements
from .optimizer import ObjectiveWeights, greedy_optimize, save_trace
from .report import (
    DEFAULT_HEATMAP_ALTITUDES_M,
    CompareReport,
    coverage_ratios,
    coverage_report,
    difference_heatmap,
    export_heatmap_csv,
    save_json_report,
)
from .scene import (
    BeamAssignment,
    build_voxel_grid,
    load_assignment,
    read_json,
    save_assignment,
    scene_from_dict,
)
from .spectrum import build_field, calibrate_offset, export_field_csv, predict_at
from .synth import helix_trajectory, lawnmower_trajectory, synthesize_measurements
from .validation import (
    DEFAULT_LAYER_HEIGHT_M,
    KrigingPredictor,
    NearestNeighborPredictor,
    TwinPredictor,
    run_validation,
    save_validation_report,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_COMPUTE = 3

# A calibration offset is a few dB. Past about 3,000 dB the dBm-to-mW
# conversion overflows and SINR turns NaN, so --offset-db is bounded well
# below that.
MAX_OFFSET_DB = 1000.0


def _parse_override(text: str) -> tuple[str, object]:
    if "=" not in text:
        raise InputError(f"--set expects key=value, got '{text}'")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def _override_key(node, part: str, dotted_key: str, leaf: bool):
    """``part`` as an index of a list node or a key of a dict node (new only at the leaf)."""
    if isinstance(node, list):
        try:
            if -len(node) <= int(part) < len(node):
                return int(part)
        except ValueError:
            pass
    elif isinstance(node, dict) and (leaf or part in node):
        return part
    raise InputError(f"--set path '{dotted_key}' not found at '{part}'")


def _apply_override(doc: dict, dotted_key: str, value) -> None:
    *path, last = dotted_key.split(".")
    node = doc
    for part in path:
        node = node[_override_key(node, part, dotted_key, leaf=False)]
    node[_override_key(node, last, dotted_key, leaf=True)] = value


def _load_scene_with_overrides(path: str, overrides: list[str]):
    if not os.path.exists(path):
        raise InputError(f"scene file not found: {path}")
    doc = read_json(path, "scene")
    pairs = [_parse_override(o) for o in overrides]
    for key, value in pairs:
        _apply_override(doc, key, value)
    scene = scene_from_dict(doc, base_dir=os.path.dirname(os.path.abspath(path)))
    return scene, dict(pairs)


def _write_manifest(out_dir: str, command: str, args: argparse.Namespace,
                    overrides: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    manifest = {
        "command": command,
        "tool": "airtwin",
        "version": __version__,
        "seed": getattr(args, "seed", 0),
        "inputs": {k: getattr(args, k) for k in
                   ("scene", "assignment", "initial", "measurements", "mapping", "compare_to")
                   if getattr(args, k, None) is not None},
        "overrides": overrides,
        "out_dir": out_dir,
    }
    text = json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False)
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        fh.write(text + "\n")


def _assignment_for(scene, path: str | None) -> BeamAssignment:
    if path is None:
        return BeamAssignment.baseline(scene)
    if not os.path.exists(path):
        raise InputError(f"assignment file not found: {path}")
    assignment = load_assignment(path)
    assignment.validate_for(scene, require_lattice=False)
    return assignment


def _measurements_for(args, scene):
    if not os.path.exists(args.measurements):
        raise InputError(f"measurement file not found: {args.measurements}")
    return load_measurements(args.measurements, mapping=args.mapping)


def _load_mask(path: str) -> np.ndarray:
    """The voxel indices in a ``--mask`` file; a malformed or empty file is an input error."""
    if not os.path.exists(path):
        raise InputError(f"mask file not found: {path}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)   # numpy's "no data"; reported below
        try:
            mask = np.loadtxt(path, dtype=np.int64, ndmin=1)
        except ValueError as exc:
            raise InputError(f"--mask {path} must hold integer voxel indices: {exc}") from exc
    if mask.size == 0:
        raise InputError(f"--mask {path} holds no voxel index")
    return mask


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------
def cmd_build(args) -> int:
    scene, overrides = _load_scene_with_overrides(args.scene, args.set)
    assignment = _assignment_for(scene, args.assignment)
    _write_manifest(args.out, "build", args, overrides)
    field = build_field(scene, build_voxel_grid(scene.airspace), assignment, args.offset_db,
                        threads=args.threads)
    sinr = sinr_from_field(field, scene.radio, args.activity_factor)
    with open(os.path.join(args.out, "field.csv"), "w") as fh:
        export_field_csv(field, fh)
    with open(os.path.join(args.out, "sinr.csv"), "w") as fh:
        export_sinr_csv(sinr, fh)
    print(f"wrote field.csv and sinr.csv for {field.grid.count} voxels "
          f"x {len(field.cell_ids)} cells in {args.out}")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    scene, overrides = _load_scene_with_overrides(args.scene, args.set)
    assignment = _assignment_for(scene, args.assignment)
    measurements = _measurements_for(args, scene)
    _write_manifest(args.out, "calibrate", args, overrides)
    predicted = predict_at(scene, assignment, 0.0,
                           zip(measurements.positions, measurements.cell_ids))
    cal = calibrate_offset(predicted, measurements)
    save_json_report({
        "offset_db": round(cal.offset_db, 4),
        "residual_rmse_db": round(cal.residual_rmse_db, 4),
        "n_samples": cal.n_samples,
    }, os.path.join(args.out, "calibration.json"))
    print(f"offset {cal.offset_db:.4f} dB, residual RMSE {cal.residual_rmse_db:.4f} dB "
          f"over {cal.n_samples} samples")
    return EXIT_OK


def _check_validate_flags(args) -> None:
    if args.folds < 1:
        raise InputError(f"--folds must be >= 1, got {args.folds}")
    if not (math.isfinite(args.train_fraction) and 0.0 < args.train_fraction < 1.0):
        raise InputError(f"--train-fraction must be finite and in (0, 1), "
                         f"got {args.train_fraction}")
    if not (math.isfinite(args.layer_height) and args.layer_height > 0.0):
        raise InputError(f"--layer-height must be finite and > 0, got {args.layer_height}")


def cmd_validate(args) -> int:
    _check_validate_flags(args)
    scene, overrides = _load_scene_with_overrides(args.scene, args.set)
    assignment = _assignment_for(scene, args.assignment)
    measurements = _measurements_for(args, scene)
    _write_manifest(args.out, "validate", args, overrides)
    predictors = {
        "twin_offset": TwinPredictor(scene, assignment),
        "kriging": KrigingPredictor(args.layer_height),
        "nearest_neighbor": NearestNeighborPredictor(),
    }
    report = run_validation(measurements, predictors,
                            train_fraction=args.train_fraction, n_folds=args.folds)
    save_validation_report(report, os.path.join(args.out, "validation_report.json"))
    for name, value in sorted(report.pooled_rmse_db.items()):
        print(f"pooled RMSE {name}: {value:.4f} dB")
    for name in sorted(set(predictors) - set(report.pooled_rmse_db)):
        print(f"warning: {name} failed in every fold: {report.folds[0].failed[name]}",
              file=sys.stderr)
    return EXIT_OK


def cmd_optimize(args) -> int:
    scene, overrides = _load_scene_with_overrides(args.scene, args.set)
    initial = _assignment_for(scene, args.initial)
    _write_manifest(args.out, "optimize", args, overrides)
    weights = ObjectiveWeights(alpha=args.alpha, beta=args.beta,
                               margin_cap_db=args.margin_cap,
                               epsilon_gain=args.epsilon_gain)
    grid = build_voxel_grid(scene.airspace)

    def coverage(field):   # a report's counts; its SinrField is dropped at once
        return coverage_ratios(sinr_from_field(field, scene.radio, args.activity_factor),
                               scene.thresholds)

    field = build_field(scene, grid, initial, args.offset_db, threads=args.threads)
    before = coverage(field)
    optimized, trace, field = greedy_optimize(scene, grid, initial, weights,
                                              activity_factor=args.activity_factor,
                                              offset_db=args.offset_db, threads=args.threads,
                                              field=field)
    save_assignment(optimized, os.path.join(args.out, "assignment.json"))
    save_trace(trace, os.path.join(args.out, "trace.json"))

    report = CompareReport(before, coverage(field))
    save_json_report(report.to_json_dict(), os.path.join(args.out, "compare_report.json"))
    print(f"objective {trace.initial_objective:.4f} -> {trace.final_objective:.4f}; "
          f"strict RSRP ratio {report.before.ratio('rsrp_strict'):.4f} -> "
          f"{report.after.ratio('rsrp_strict'):.4f}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    scene, overrides = _load_scene_with_overrides(args.scene, args.set)
    assignment = _assignment_for(scene, args.assignment)
    _write_manifest(args.out, "evaluate", args, overrides)
    mask = None if args.mask is None else _load_mask(args.mask)
    grid = build_voxel_grid(scene.airspace)
    others = () if args.compare_to is None else (_assignment_for(scene, args.compare_to),)
    counts, layers = build_sinr_field(
        scene, grid, (*others, assignment), args.offset_db, args.activity_factor, mask=mask,
        altitudes=DEFAULT_HEATMAP_ALTITUDES_M if others else (), threads=args.threads)
    *before, report = [coverage_report(grid, side) for side in counts]
    if not others:
        save_json_report(report.to_json_dict(), os.path.join(args.out, "coverage_report.json"))
        print(f"strict RSRP {report.ratio('rsrp_strict'):.4f}, "
              f"joint basic {report.ratio('joint_basic'):.4f}")
        return EXIT_OK

    report = CompareReport(*before, report)
    save_json_report(report.to_json_dict(), os.path.join(args.out, "compare_report.json"))
    for alt, sides in layers.items():
        for q, name in enumerate(("rsrp", "sinr")):
            with open(os.path.join(args.out, f"heatmap_{name}_{int(alt)}m.csv"), "w") as fh:
                export_heatmap_csv(difference_heatmap(sides[0, q], sides[1, q], grid, alt), fh)
    print(f"strict RSRP ratio {report.before.ratio('rsrp_strict'):.4f} -> "
          f"{report.after.ratio('rsrp_strict'):.4f}")
    return EXIT_OK


def _synth_altitudes(args) -> list[float]:
    """Check synth's trajectory flags; returns the parsed ``--altitudes``."""
    if args.samples < 1:
        raise InputError(f"--samples must be >= 1, got {args.samples}")
    if not math.isfinite(args.turns):
        raise InputError(f"--turns must be finite, got {args.turns}")
    for flag, value in (("--line-spacing", args.line_spacing), ("--step", args.step)):
        if not (math.isfinite(value) and value > 0.0):
            raise InputError(f"{flag} must be finite and > 0, got {value}")
    try:
        altitudes = [float(a) for a in args.altitudes.split(",")]
    except ValueError as exc:
        raise InputError(f"--altitudes must be comma-separated numbers: {exc}") from exc
    if not all(math.isfinite(a) for a in altitudes):
        raise InputError(f"--altitudes must be finite, got {args.altitudes}")
    return altitudes


def cmd_synth(args) -> int:
    altitudes = _synth_altitudes(args)
    scene, overrides = _load_scene_with_overrides(args.scene, args.set)
    assignment = _assignment_for(scene, args.assignment)
    _write_manifest(args.out, "synth", args, overrides)
    if args.trajectory == "helix":
        trajectory = helix_trajectory(scene.airspace, n_points=args.samples,
                                      turns=args.turns)
    else:
        trajectory = lawnmower_trajectory(scene.airspace, altitudes,
                                          line_spacing_m=args.line_spacing,
                                          step_m=args.step)
        if len(trajectory) == 0:
            raise InputError(f"--line-spacing {args.line_spacing} and --step {args.step} "
                             f"leave no lawnmower point inside the airspace")
    measurements = synthesize_measurements(scene, assignment, trajectory,
                                           sigma_db=args.noise_sigma_db, seed=args.seed,
                                           offset_db=args.offset_db, cells=args.cells)
    with open(os.path.join(args.out, "measurements.csv"), "w") as fh:
        save_measurements(measurements, fh)
    print(f"wrote {len(measurements)} samples to {args.out}/measurements.csv")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------
def _add_common(p, offset_db=False, activity_factor=False):
    """Options every command takes, then the field options of those that read them."""
    p.add_argument("--scene", required=True, help="scene JSON file")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override a scene config value by dotted path")
    p.add_argument("--threads", type=int, default=1, help="parallelism cap; output-invariant")
    if offset_db:
        p.add_argument("--offset-db", type=float, default=0.0, dest="offset_db",
                       help="calibration offset applied to predictions")
    if activity_factor:
        p.add_argument("--activity-factor", type=float, default=1.0, dest="activity_factor",
                       help="fraction of full-load interference from non-serving cells")
    p.add_argument("--out", required=True, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="airtwin",
        description="Voxel-level radio twin for low-altitude airspace: "
                    "predict, validate, and optimize sub-beam steering.")
    parser.add_argument("--version", action="version", version=f"airtwin {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="export RSRP and SINR fields for an assignment")
    _add_common(p, offset_db=True, activity_factor=True)
    p.add_argument("--assignment", help="assignment JSON (default: scene baseline)")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("calibrate", help="fit the global offset against measurements")
    _add_common(p)
    p.add_argument("--assignment", help="assignment JSON (default: scene baseline)")
    p.add_argument("--measurements", required=True, help="measurement CSV")
    p.add_argument("--mapping", help="JSON column/frame mapping for foreign CSVs")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("validate", help="block hold-out comparison of predictors")
    _add_common(p)
    p.add_argument("--assignment", help="assignment JSON (default: scene baseline)")
    p.add_argument("--measurements", required=True, help="measurement CSV")
    p.add_argument("--mapping", help="JSON column/frame mapping for foreign CSVs")
    p.add_argument("--train-fraction", type=float, default=0.7, dest="train_fraction")
    p.add_argument("--folds", type=int, default=3)
    p.add_argument("--layer-height", type=float, default=DEFAULT_LAYER_HEIGHT_M,
                   dest="layer_height", help="Kriging altitude layer height (m)")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("optimize", help="greedy sequential sub-beam steering")
    _add_common(p, offset_db=True, activity_factor=True)
    p.add_argument("--initial", help="initial assignment JSON (default: scene baseline)")
    p.add_argument("--alpha", type=float, default=1.0, help="weight per covered voxel")
    p.add_argument("--beta", type=float, default=0.1, help="weight per dB*voxel of margin")
    p.add_argument("--margin-cap", type=float, default=10.0, dest="margin_cap")
    p.add_argument("--epsilon-gain", type=float, default=0.005, dest="epsilon_gain")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("evaluate", help="coverage report for an assignment")
    _add_common(p, offset_db=True, activity_factor=True)
    p.add_argument("--assignment", help="assignment JSON (default: scene baseline)")
    p.add_argument("--compare-to", dest="compare_to",
                   help="baseline assignment to diff against (emits heatmaps)")
    p.add_argument("--mask", help="file of voxel indices restricting the ratios")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("synth", help="generate synthetic UAV measurements")
    _add_common(p, offset_db=True)
    p.add_argument("--seed", type=int, default=0, help="noise seed")
    p.add_argument("--assignment", help="assignment JSON (default: scene baseline)")
    p.add_argument("--trajectory", choices=("helix", "lawnmower"), default="helix")
    p.add_argument("--samples", type=int, default=400, help="helix sample count")
    p.add_argument("--turns", type=float, default=3.0, help="helix turns")
    p.add_argument("--altitudes", default="50,150,250",
                   help="lawnmower altitudes, comma separated (m)")
    p.add_argument("--line-spacing", type=float, default=100.0, dest="line_spacing")
    p.add_argument("--step", type=float, default=50.0, help="lawnmower step (m)")
    p.add_argument("--noise-sigma-db", type=float, default=0.0, dest="noise_sigma_db")
    p.add_argument("--cells", choices=("all", "serving"), default="all")
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        offset_db = getattr(args, "offset_db", 0.0)
        if not (math.isfinite(offset_db) and abs(offset_db) <= MAX_OFFSET_DB):
            raise InputError(f"--offset-db must be finite and within +-{MAX_OFFSET_DB:g} dB, "
                             f"got {offset_db}")
        if args.threads < 1:
            raise InputError(f"--threads must be >= 1, got {args.threads}")
        activity_factor = getattr(args, "activity_factor", 1.0)
        if not 0.0 <= activity_factor <= 1.0:   # also false for NaN
            raise InputError(f"--activity-factor must be in [0, 1], got {activity_factor}")
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (AirtwinError, ValueError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
