"""The benchmark's workloads: fixed scenes, seeded inputs and the CLI argv they run.

Scenes are fixed. The seed picks one candidate-lattice angle per sub-beam
(``SubBeam.lattice()``) for the assignment the commands read, and is the
``synth`` noise seed. The program sees only the generated files.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from airtwin.scene import (
    BeamAssignment,
    build_voxel_grid,
    save_assignment,
    scene_from_dict,
)
from perfbench.checks import sha256_file

SCENE = "scenes/demo_6cell.json"
DEFAULT_SEED = 0
HOLDOUT_SAMPLES = 300
HOLDOUT_FOLDS = 3   # the CLI's default --folds


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: tuple[str, ...]   # --set KEY=VALUE, applied to SCENE
    threads: int
    work_name: str               # what one unit of work_per_s counts


# BENCHMARK.json lists all but field_export, which runs by name only: the
# time allowed for a benchmark check's runs fits three 40-second workloads.
WORKLOADS = {w.name: w for w in (
    Workload("field_export", ("airspace.voxel_m=10",), 1, "field_evals_per_s"),
    Workload("compare_large", ("airspace.radius_m=1000", "airspace.voxel_m=10"), 2,
             "field_evals_per_s"),
    Workload("greedy_demo", (), 1, "candidates_per_s"),
    Workload("holdout_demo", (), 1, "holdout_samples_per_s"),
)}


def load_scene(overrides=()):
    """The scene with ``--set`` overrides applied the way the CLI applies them."""
    with open(SCENE) as fh:
        doc = json.load(fh)
    for text in overrides:
        key, raw = text.split("=", 1)
        *path, last = key.split(".")
        node = doc
        for part in path:
            node = node[part]
        node[last] = json.loads(raw)
    return scene_from_dict(doc, base_dir=os.path.dirname(os.path.abspath(SCENE)))


def seeded_assignment(scene, seed: int) -> BeamAssignment:
    """One lattice angle per sub-beam, drawn in ``scene.beam_keys()`` order."""
    rng = np.random.default_rng(seed)
    angles = {}
    for key in scene.beam_keys():
        lattice = scene.sub_beam(*key)[2].lattice()
        angles[key] = lattice[int(rng.integers(len(lattice)))]
    return BeamAssignment(angles)


def generate_inputs(workload: Workload, seed: int, in_dir: str) -> dict:
    """Write the workload's input files; return what the result records about them."""
    os.makedirs(in_dir, exist_ok=True)
    scene = load_scene(workload.overrides)
    files = {"assignment": os.path.join(in_dir, "assignment.json"),
             "baseline": os.path.join(in_dir, "baseline.json")}
    save_assignment(seeded_assignment(scene, seed), files["assignment"])
    save_assignment(BeamAssignment.baseline(scene), files["baseline"])
    keys = scene.beam_keys()
    return {
        "seed": seed,
        "files": files,
        "input_sha256": {SCENE: sha256_file(SCENE),
                         **{os.path.basename(p): sha256_file(p) for p in files.values()}},
        "voxels": build_voxel_grid(scene.airspace).count,
        "sub_beams": len(keys),
        "cells": len(scene.cell_ids),
        "candidates": sum(len(scene.sub_beam(*key)[2].lattice()) for key in keys),
        "threads": workload.threads,
    }


def commands(workload: Workload, inputs: dict, out_dir: str, seed: int) -> list:
    """``(command, argv)`` pairs, run in order; each command writes ``out_dir/<command>``."""
    common = ["--scene", SCENE, "--threads", str(workload.threads)]
    for text in workload.overrides:
        common += ["--set", text]
    assignment = inputs["files"]["assignment"]

    def out(command):
        return ["--out", os.path.join(out_dir, command)]

    if workload.name == "field_export":
        return [("build", ["build", *common, "--assignment", assignment, *out("build")])]
    if workload.name == "compare_large":
        return [("evaluate", ["evaluate", *common, "--assignment", assignment,
                              "--compare-to", inputs["files"]["baseline"], *out("evaluate")])]
    if workload.name == "greedy_demo":
        return [("optimize", ["optimize", *common, "--initial", assignment, *out("optimize")])]
    measurements = os.path.join(out_dir, "synth", "measurements.csv")
    return [
        ("synth", ["synth", *common, "--samples", str(HOLDOUT_SAMPLES),
                   "--noise-sigma-db", "2", "--seed", str(seed), *out("synth")]),
        ("calibrate", ["calibrate", *common, "--measurements", measurements,
                       *out("calibrate")]),
        ("validate", ["validate", *common, "--measurements", measurements,
                      *out("validate")]),
    ]


def output_counts(workload: Workload, inputs: dict, out_dir: str) -> dict:
    """Work one pass did, from its outputs; ``work_units`` is what ``work_per_s`` counts."""
    if workload.name == "field_export":
        return {"work_units": inputs["voxels"] * inputs["sub_beams"]}
    if workload.name == "compare_large":
        return {"work_units": inputs["voxels"] * inputs["sub_beams"] * 2}
    if workload.name == "greedy_demo":
        with open(os.path.join(out_dir, "optimize", "trace.json")) as fh:
            return {"work_units": sum(step["n_candidates"] for step in json.load(fh))}
    with open(os.path.join(out_dir, "synth", "measurements.csv"), "rb") as fh:
        rows = sum(1 for _ in fh) - 1
    return {"work_units": rows * HOLDOUT_FOLDS, "measurement_rows": rows}
