"""The report files' exact bytes, pinned on a small scene.

``coverage_report.json`` and ``compare_report.json`` are the paper's result
(coverage ratios before and after steering). Each case runs one command and
compares the file it writes with the text kept in ``tests/report_bytes/``, so
a change to how reports are computed or written that moves one byte fails here.
"""

import os
import pathlib

import numpy as np
import pytest

from airtwin.cli import main
from airtwin.scene import BeamAssignment, build_voxel_grid, save_assignment
from factories import simple_scene
from oracles import save_scene

EXPECTED = pathlib.Path(__file__).with_name("report_bytes")

# case -> (argv after --scene/--out, the report file it writes)
CASES = {
    "optimize": (["optimize"], "compare_report.json"),
    "evaluate": (["evaluate", "--offset-db", "1.5"], "coverage_report.json"),
    "evaluate_mask": (["evaluate", "--mask", "{mask}"], "coverage_report.json"),
    "evaluate_compare": (["evaluate", "--assignment", "{optimized}", "--compare-to",
                          "{baseline}", "--activity-factor", "0.5"], "compare_report.json"),
}


def run_cases(root: pathlib.Path) -> dict:
    """Run every case in order under ``root``; returns case -> path of its report."""
    scene = simple_scene(n_cells=3, n_beams=2, radius_m=100.0, z_max_m=60.0, voxel_m=20.0,
                         tx_power_dbm=-20.0)
    scene_path = root / "scene.json"
    save_scene(scene, scene_path)
    files = {"baseline": root / "baseline.json", "mask": root / "mask.txt",
             "optimized": root / "optimize" / "assignment.json"}
    save_assignment(BeamAssignment.baseline(scene), files["baseline"])
    count = build_voxel_grid(scene.airspace).count
    # Every layer, out of order.
    np.savetxt(files["mask"], np.arange(count)[::-7], fmt="%d")
    reports = {}
    for case, (argv, report) in CASES.items():
        argv = [a.format(**files) for a in argv]
        out = root / case
        rc = main([argv[0], "--scene", str(scene_path), "--out", str(out), *argv[1:]])
        assert rc == 0, case
        reports[case] = out / report
    return reports


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    return run_cases(tmp_path_factory.mktemp("reports"))


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes_unchanged(case, reports):
    expected = (EXPECTED / f"{case}.{CASES[case][1]}").read_bytes()
    assert reports[case].read_bytes() == expected


if __name__ == "__main__":
    # Re-record the expected files: run from the repo root with src/ and tests/
    # on PYTHONPATH, then review the diff.
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        EXPECTED.mkdir(exist_ok=True)
        for case, path in run_cases(pathlib.Path(tmp)).items():
            (EXPECTED / f"{case}.{CASES[case][1]}").write_bytes(path.read_bytes())
            print(f"recorded {case} ({os.path.getsize(path)} bytes)")
