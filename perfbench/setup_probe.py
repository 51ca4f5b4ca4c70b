"""Set-up probe: the work every airtwin command does before its own.

A fresh process imports ``airtwin.cli``, builds the scene with the
workload's ``--set`` overrides through ``scene_from_dict`` and voxelizes it
with ``build_voxel_grid``. It prints the time of each step as one JSON line:

    python3 perfbench/setup_probe.py --scene scenes/demo_6cell.json --set airspace.voxel_m=10
"""

import argparse
import json
import os
import time


def main() -> None:
    t0 = time.perf_counter()
    import airtwin.cli  # noqa: F401  (the import is what is timed)
    from airtwin.scene import build_voxel_grid, scene_from_dict

    t1 = time.perf_counter()
    parser = argparse.ArgumentParser(description="airtwin set-up probe")
    parser.add_argument("--scene", required=True)
    parser.add_argument("--set", action="append", default=[])
    args = parser.parse_args()
    with open(args.scene) as fh:
        doc = json.load(fh)
    for text in args.set:
        key, raw = text.split("=", 1)
        *path, last = key.split(".")
        node = doc
        for part in path:
            node = node[part]
        node[last] = json.loads(raw)
    scene = scene_from_dict(doc, base_dir=os.path.dirname(os.path.abspath(args.scene)))
    t2 = time.perf_counter()
    grid = build_voxel_grid(scene.airspace)
    t3 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "scene_s": t2 - t1, "voxelize_s": t3 - t2,
                      "voxels": grid.count}))


if __name__ == "__main__":
    main()
