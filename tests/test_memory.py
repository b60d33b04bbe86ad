"""Peak memory of the large-model path, as tracemalloc sees it.

numpy reports its buffers to tracemalloc, so a peak here counts every array
a call allocates, not only Python objects.  Each bound sits well above what
the call needs and well below what a K x K pair check, per-layer engine
arrays or a whole-file JSON text would take.
"""

import tracemalloc

import numpy as np
import pytest

import deepssm as d

MIB = 2**20


def peak_bytes(call):
    """The most memory ``call()`` held at once beyond what was held before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def student():
    """The benchmark's size: 1201 modes factorized to depth 12, width 101."""
    model, _ = d.factorize(d.sample_teacher(1201, 2.0, d.seeded_rng(1)), 12)
    assert (model.depth, model.width) == (12, 101)
    return model


def test_pair_check_holds_no_square_array():
    # 3000 values: one K x K complex array alone would be 137 MiB.
    values = np.random.default_rng(3000).standard_normal((3000, 2)) @ [1, 1j]
    assert peak_bytes(lambda: d.coincident_pairs(values)) < 2 * MIB


@pytest.mark.parametrize("horizon", [2048, 8192])
def test_simulation_scratch_does_not_grow_with_the_horizon(student, horizon):
    # Three (1024, 101) complex buffers are 4.7 MiB, whatever the depth and
    # the horizon.
    assert peak_bytes(lambda: d.kernel_by_simulation(student, horizon)) < 7 * MIB


def test_model_json_is_written_one_array_at_a_time(student, tmp_path):
    # The student's JSON is 6.7 MB; the text of its largest array is under 1 MB.
    assert peak_bytes(lambda: d.save_model(student, tmp_path / "student.json")) < 4 * MIB
