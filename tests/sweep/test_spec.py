"""SweepSpec: validation, geometry, serialization, the builtin spaces."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.hw.systems import get_system
from repro.sweep.spec import (
    SWEEP_SPEC_NAMES,
    SWEEP_SPEC_SCHEMA,
    WORKLOAD_NAMES,
    SweepSpec,
    get_sweep_spec,
    load_sweep_spec,
)


def _spec(**overrides) -> SweepSpec:
    kwargs = dict(
        name="t",
        workload="gemm-tile",
        systems=("aurora",),
        precisions=("fp64",),
        stacks=(1,),
        axes=(
            ("tile_m", (64, 128)),
            ("tile_n", (64,)),
            ("tile_k", (16,)),
        ),
    )
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


class TestValidation:
    def test_unknown_workload(self):
        with pytest.raises(ConfigurationError, match="unknown sweep workload"):
            _spec(workload="nope", axes=())

    def test_axes_must_match_workload(self):
        with pytest.raises(ConfigurationError, match="needs axes"):
            _spec(axes=(("tile_m", (64,)),))

    def test_unknown_system(self):
        from repro.errors import UnknownSystemError

        with pytest.raises(UnknownSystemError):
            _spec(systems=("summit",))

    def test_unknown_precision(self):
        with pytest.raises(ConfigurationError):
            _spec(precisions=("fp8",))

    def test_bad_stacks(self):
        with pytest.raises(ConfigurationError, match="'all'"):
            _spec(stacks="every")
        with pytest.raises(ConfigurationError, match="stack list"):
            _spec(stacks=())
        with pytest.raises(ConfigurationError, match="stack list"):
            _spec(stacks=(0,))

    def test_stacks_beyond_system(self):
        spec = _spec(stacks=(10,))
        spec.stack_values("aurora")  # 12 stacks: fine
        with pytest.raises(ConfigurationError, match="10 stack"):
            spec.stack_values("dawn")  # 8 stacks

    def test_empty_axis(self):
        with pytest.raises(ConfigurationError, match="is empty"):
            _spec(
                axes=(
                    ("tile_m", ()),
                    ("tile_n", (64,)),
                    ("tile_k", (16,)),
                )
            )


class TestGeometry:
    def test_system_points_is_the_cross_product(self):
        spec = _spec(
            precisions=("fp64", "fp32"),
            stacks=(1, 2, 4),
        )
        assert spec.system_points("aurora") == 3 * 2 * 2 * 1 * 1
        assert spec.n_points() == spec.system_points("aurora")

    def test_all_stacks_varies_per_system(self):
        spec = _spec(systems=("aurora", "dawn"), stacks="all")
        assert spec.stack_values("aurora") == tuple(range(1, 13))
        assert spec.stack_values("dawn") == tuple(range(1, 9))
        assert spec.n_points() == (12 + 8) * 1 * 2 * 1 * 1


class TestSerialization:
    def test_doc_round_trip(self):
        spec = get_sweep_spec("ci")
        assert SweepSpec.from_doc(spec.to_doc()) == spec
        assert spec.to_doc()["schema"] == SWEEP_SPEC_SCHEMA

    def test_bad_schema(self):
        with pytest.raises(ConfigurationError, match="not a sweep spec"):
            SweepSpec.from_doc({"schema": "nope"})

    @pytest.mark.parametrize(
        "field", ["name", "workload", "systems", "precisions", "axes"]
    )
    def test_missing_field_is_a_configuration_error(self, field):
        doc = get_sweep_spec("smoke").to_doc()
        del doc[field]
        with pytest.raises(ConfigurationError, match=f"missing field '{field}'"):
            SweepSpec.from_doc(doc)

    @pytest.mark.parametrize(
        "axes",
        [
            [["tile_m"]],
            [["tile_m", ["x"]], ["tile_n", [64]], ["tile_k", [16]]],
            [["tile_m", None], ["tile_n", [64]], ["tile_k", [16]]],
        ],
        ids=["one-element-pair", "non-integer-value", "null-values"],
    )
    def test_malformed_axes_are_a_configuration_error(self, axes):
        doc = dict(get_sweep_spec("smoke").to_doc(), axes=axes)
        with pytest.raises(ConfigurationError, match="malformed sweep spec"):
            SweepSpec.from_doc(doc)

    def test_load_from_json_file(self, tmp_path):
        spec = _spec(name="from-file")
        path = tmp_path / "space.json"
        path.write_text(json.dumps(spec.to_doc()))
        assert load_sweep_spec(str(path)) == spec

    def test_load_unknown_name(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no builtin sweep spec"):
            load_sweep_spec(str(tmp_path / "missing.json"))

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            load_sweep_spec(str(path))


class TestBuiltins:
    def test_registry(self):
        assert set(SWEEP_SPEC_NAMES) == {
            "smoke", "ci", "million", "bude-tune", "mix"
        }
        for name in SWEEP_SPEC_NAMES:
            spec = get_sweep_spec(name)
            assert spec.workload in WORKLOAD_NAMES
            assert spec.n_points() > 0
        with pytest.raises(ConfigurationError, match="unknown sweep spec"):
            get_sweep_spec("gigantic")

    def test_million_meets_the_acceptance_floor(self):
        assert get_sweep_spec("million").n_points() >= 1_000_000

    def test_ci_space_is_ci_sized(self):
        assert 50_000 <= get_sweep_spec("ci").n_points() <= 500_000

    def test_smoke_is_test_sized(self):
        assert get_sweep_spec("smoke").n_points() <= 1000

    def test_mix_covers_every_system(self):
        spec = get_sweep_spec("mix")
        for sysname in spec.systems:
            get_system(sysname)
        assert len(spec.systems) == 4
