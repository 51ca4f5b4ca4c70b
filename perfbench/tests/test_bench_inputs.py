"""The seeded input generator is deterministic and keeps the work fixed."""

import os

from perfbench import workloads


def _generate(tmp_path, seed, name):
    inputs = workloads.generate_inputs(workloads.WORKLOADS["greedy_demo"], seed,
                                       str(tmp_path / name))
    with open(inputs["files"]["assignment"], "rb") as fh:
        return inputs, fh.read()


def test_same_seed_gives_the_same_bytes(repo_root, tmp_path):
    first, first_bytes = _generate(tmp_path, 7, "a")
    again, again_bytes = _generate(tmp_path, 7, "b")
    assert first_bytes == again_bytes
    assert first["input_sha256"] == again["input_sha256"]


def test_other_seed_gives_other_angles_and_the_same_candidate_count(repo_root, tmp_path):
    first, first_bytes = _generate(tmp_path, 7, "a")
    other, other_bytes = _generate(tmp_path, 8, "b")
    assert first_bytes != other_bytes
    assert first["candidates"] == other["candidates"] == 2352

    scene = workloads.load_scene()
    for seed in (7, 8):
        assignment = workloads.seeded_assignment(scene, seed)
        for key, angle in assignment.angles.items():
            assert angle in scene.sub_beam(*key)[2].lattice()   # never an extra candidate


def test_each_command_writes_its_own_out_dir(repo_root, tmp_path):
    inputs, _ = _generate(tmp_path, 3, "in")
    for workload in workloads.WORKLOADS.values():
        for command, argv in workloads.commands(workload, inputs, "out", 3):
            assert argv[0] == command
            assert argv[argv.index("--out") + 1] == os.path.join("out", command)
