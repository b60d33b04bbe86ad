"""Self-tests of the benchmark's own code: ``python3 -m pytest benchmarks``."""

import itertools
import os
import sys

import numpy as np
import pytest

import workloads

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))


def _files(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as handle:
            out[name] = handle.read()
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_seed_gives_byte_identical_inputs(tmp_path, workload):
    first = workloads.generate(workload, 7, str(tmp_path / "a"))
    again = workloads.generate(workload, 7, str(tmp_path / "b"))
    other = workloads.generate(workload, 8, str(tmp_path / "c"))
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    strip = lambda plan: str(plan).replace(plan["inputs_dir"], "")  # noqa: E731
    assert strip(first) == strip(again)
    assert strip(first) != strip(other)


def _enumerated_live_paths(mats, read_out):
    m, count = len(read_out), 0
    for path in itertools.product(range(m), repeat=len(mats)):
        weight = mats[0][path[0], 0] * read_out[path[-1]]
        for i in range(1, len(mats)):
            weight = weight * mats[i][path[i], path[i - 1]]
        count += weight != 0
    return count


def test_live_paths_match_enumeration_on_sparse_models():
    rng = np.random.default_rng(0)
    for depth, width in [(1, 4), (3, 3), (4, 4), (5, 3)]:
        mask = lambda shape: rng.random(shape) < 0.5  # noqa: E731
        mats = [mask((width, 1))] + [mask((width, width)) for _ in range(depth - 1)]
        read_out = mask(width)
        assert workloads.live_paths(mats, read_out) == _enumerated_live_paths(mats, read_out)


@pytest.mark.parametrize("depth", [4, 6])
def test_live_paths_match_enumeration_on_factorized_students(depth):
    import deepssm as d

    teacher = d.sample_teacher(depth * 4 + 1, 2.0, d.seeded_rng(depth))
    student, _ = d.factorize(teacher, depth)
    mats = [layer.input_matrix for layer in student.layers]
    live = workloads.live_paths(mats, student.read_out)
    assert live == _enumerated_live_paths(mats, student.read_out)
    assert live < 5 ** depth


def test_references_agree_on_a_modal_model():
    sigma, b, c = workloads.modal_teacher(workloads.rng_for(3, "factorize-roundtrip", 0))
    stacked = workloads.reference_kernel([sigma[:40]], [b[:40, None]], c[:40], 300)
    modal = workloads.modal_kernel(sigma[:40], b[:40] * c[:40], 300)
    assert np.max(np.abs(stacked - modal)) <= 1e-12 * np.max(np.abs(modal))
