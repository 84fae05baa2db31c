"""``fiber_mode.write_csv`` against the row-by-row oracle: the same bytes for every float.

The writer formats each distinct bit pattern of a block once and reuses the
text of patterns the previous block also had; these tests hold its output to
``csv_oracle.write_csv_rows`` and count its ``repr`` calls.
"""
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from csv_oracle import write_csv_rows

from nanotrap import cli, fiber_mode
from nanotrap.fiber_mode import GRID_COLUMNS, PolarGrid, write_csv

PAPER_CFG = str(resources.files("nanotrap").joinpath("data/paper.cfg"))
pytestmark = pytest.mark.simd_baseline

SPECIAL_BITS = [
    0x0000000000000000,  # +0.0
    0x8000000000000000,  # -0.0
    0x7FF8000000000000,  # quiet NaN
    0xFFF8000000000000,  # negative quiet NaN
    0x7FF8000000000001,  # NaN payloads
    0x7FF0000000000001,
    0xFFFFFFFFFFFFFFFF,
    0x7FF0000000000000,  # +inf
    0xFFF0000000000000,  # -inf
    0x0000000000000001,  # 5e-324, the least subnormal
    0x8000000000000001,  # -5e-324
    0x000FFFFFFFFFFFFF,  # the largest subnormal
    0x0010000000000000,  # the least normal
]
SPECIAL = np.array(SPECIAL_BITS, dtype=np.uint64).view(float)


@pytest.fixture
def repr_calls(monkeypatch):
    """The values ``fiber_mode``'s writer passes to ``repr``, in call order."""
    calls = []

    def counting_repr(value):  # shadows the builtin inside fiber_mode
        calls.append(value)
        return repr(value)

    monkeypatch.setattr(fiber_mode, "repr", counting_repr, raising=False)
    return calls


def written_and_oracle(directory, table):
    """The bytes ``write_csv`` and the oracle write for ``table``."""
    columns = [f"c{i}" for i in range(np.shape(table)[-1])]
    write_csv(directory / "writer.csv", ["test = 1"], columns, table)
    write_csv_rows(directory / "oracle.csv", ["test = 1"], columns, table)
    return (directory / "writer.csv").read_bytes(), (directory / "oracle.csv").read_bytes()


def new_patterns_per_block(table):
    """Sum over blocks of the bit patterns the previous block did not have."""
    table = np.asarray(table, dtype=float)
    count, previous = 0, set()
    for block in table.reshape(-1, *table.shape[-2:]):
        patterns = set(np.ascontiguousarray(block).view(np.int64).ravel().tolist())
        count, previous = count + len(patterns - previous), patterns
    return count


def test_csv_writer_special_values(tmp_path):
    rows = np.column_stack([SPECIAL, SPECIAL[::-1], np.roll(SPECIAL, 3)])
    table = np.stack([rows, rows[::-1], np.roll(rows, 5, axis=0)])  # every value in every block
    written, oracle = written_and_oracle(tmp_path, table)
    assert written == oracle  # 0.0 and -0.0 share each block
    first_cells = [line.split(",")[0] for line in written.decode().splitlines()[2:15]]
    assert first_cells == ["0.0", "-0.0", *["nan"] * 5, "inf", "-inf", "5e-324", "-5e-324",
                           "2.225073858507201e-308", "2.2250738585072014e-308"]


def test_csv_writer_repeats_and_the_carry(tmp_path, repr_calls):
    a = np.array([[1.5, 1.5, 2.5], [2.5, 1.5, 3.5]])  # repeated within a row and a block
    b = np.array([[4.5, 5.5, 4.5], [6.5, 6.5, 6.5]])
    table = np.stack([a, a, b, a, a[::-1]])  # adjacent repeats, then A, B, A: the carry misses
    written, oracle = written_and_oracle(tmp_path, table)
    assert written == oracle
    # a: 3 distinct; a again: 0; b: 3; a after b: 3 (the carry holds b only); a reversed: 0
    assert len(repr_calls) == new_patterns_per_block(table) == 9


@pytest.mark.parametrize(
    "table",
    [
        np.arange(60.0).reshape(3, 4, 5).transpose(2, 0, 1)[::-1],  # a non-C-contiguous view
        np.asfortranarray(np.linspace(-1.0, 1.0, 24).reshape(4, 6)),
        np.linspace(0.0, 1.0, 21)[::2, None] * np.array([1.0, -1.0, 3.0]),  # one 2-D block
        np.empty((0, 3)),
        np.arange(12).reshape(3, 4),  # integers are written as floats
        np.full((2, 3, 1), 7.25),  # one column, as a scalar map has
        np.array([0.5, -0.0, 0.5]),  # one row
    ],
    ids=["non-contiguous", "fortran", "single block", "empty", "integer", "one column", "one row"],
)
def test_csv_writer_layouts(tmp_path, table):
    written, oracle = written_and_oracle(tmp_path, table)
    assert written == oracle
    assert written.count(b"\n") == 2 + np.prod(table.shape[:-1])


@settings(max_examples=200, deadline=None)
@given(
    hnp.arrays(
        np.uint64,
        hnp.array_shapes(min_dims=3, max_dims=3, max_side=5),
        elements=st.one_of(
            st.integers(0, 2**64 - 1),
            st.sampled_from(SPECIAL_BITS),
            st.sampled_from([0x3FF0000000000000, 0x4000000000000000]),  # 1.0 and 2.0: repeats
        ),
    )
)
def test_csv_writer_random_bit_patterns(tmp_path_factory, patterns):
    written, oracle = written_and_oracle(tmp_path_factory.mktemp("csv"), patterns.view(float))
    assert written == oracle


MAP_COLUMNS = {
    "field": ["Ex_re", "Ex_im", "Ey_re", "Ey_im", "Ez_re", "Ez_im"],
    "intensity": ["intensity_V2_per_m2"],
    "ellipticity": ["eps_x", "eps_y", "eps_z"],
}


@pytest.mark.parametrize("kind", list(MAP_COLUMNS))
def test_csv_writer_field_maps_format_each_distinct_value_once(tmp_path, repr_calls, kind):
    overrides = ["grid.n_r=40", "grid.n_phi=32"]
    args = ["fieldmap", "--kind", kind, "--config", PAPER_CFG, "--out", str(tmp_path)]
    assert cli.main([*args, *(f"--set={o}" for o in overrides)]) == 0
    calls = np.array(repr_calls, dtype=float).view(np.int64)

    cfg = cli.RunConfig.load(PAPER_CFG, overrides)
    light = cfg.field("probe")
    grid = PolarGrid(cfg["fiber.radius"], cfg["grid.r_max"], 40, 32, cfg["grid.z"])
    values = {
        "field": lambda: fiber_mode.field_at(light, *grid.mesh(), grid.z).view(float),
        "intensity": lambda: fiber_mode.intensity_map(light, grid)[..., None],
        "ellipticity": lambda: fiber_mode.ellipticity_map(light, grid),
    }[kind]()
    table = grid.table(values)
    oracle = tmp_path / "oracle.csv"
    write_csv_rows(oracle, cfg.echo_lines(), [*GRID_COLUMNS, *MAP_COLUMNS[kind]], table)
    assert (tmp_path / "fieldmap.csv").read_bytes() == oracle.read_bytes()

    assert calls.size <= new_patterns_per_block(table) < table.size / 3
    r, phi = (np.ravel(axis) for axis in grid.mesh())
    grid_bits = np.concatenate([r, phi, [grid.z]]).view(np.int64)
    assert np.isin(calls, grid_bits).sum() <= grid.n_r + grid.n_phi + 1
