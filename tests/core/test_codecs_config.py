"""Tests for value codecs and the Vertexica configuration."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.codecs import FLOAT_CODEC, INTEGER_CODEC, ValueCodec, vector_codec
from repro.core.config import VertexicaConfig
from repro.engine.types import BOOLEAN, FLOAT, INTEGER, VARCHAR
from repro.errors import ProgramError, VertexicaError


class TestCodecs:
    def test_float_codec(self):
        assert FLOAT_CODEC.sql_type is FLOAT
        assert FLOAT_CODEC.encode_or_none(3) == 3.0
        assert FLOAT_CODEC.decode_or_none(3.5) == 3.5

    def test_integer_codec(self):
        assert INTEGER_CODEC.sql_type is INTEGER
        assert INTEGER_CODEC.encode_or_none(7.0) == 7

    @pytest.mark.parametrize("sql_type", [VARCHAR, BOOLEAN], ids=["varchar", "boolean"])
    def test_non_numeric_storage_rejected(self, sql_type):
        # Every value plane keeps values in fixed-width INTEGER / FLOAT
        # columns; the codec names itself in the error.
        with pytest.raises(ProgramError, match="'custom'.*INTEGER or FLOAT"):
            ValueCodec("custom", sql_type, str, str)

    def test_none_maps_to_null_both_ways(self):
        for codec in (FLOAT_CODEC, INTEGER_CODEC, vector_codec(3)):
            assert codec.encode_or_none(None) is None
            assert codec.decode_or_none(None) is None

    def test_scalar_codecs_are_not_vectors(self):
        for codec in (FLOAT_CODEC, INTEGER_CODEC):
            assert not codec.is_vector
            assert codec.width == 0
            assert codec.column_names() == ("value",)


class TestVectorCodec:
    def test_declaration(self):
        codec = vector_codec(4)
        assert codec.is_vector and codec.width == 4
        assert codec.sql_type is FLOAT
        assert codec.column_names() == ("v0", "v1", "v2", "v3")
        assert vector_codec(4) is codec  # cached per width

    def test_invalid_width_rejected(self):
        with pytest.raises(ProgramError):
            vector_codec(0)
        with pytest.raises(ProgramError):
            vector_codec(-3)

    @pytest.mark.parametrize("width", [1, 3, 8])
    def test_scalar_roundtrip_is_bit_exact(self, width):
        codec = vector_codec(width)
        rng = np.random.default_rng(width)
        value = rng.standard_normal(width).tolist()
        encoded = codec.encode_or_none(value)
        assert isinstance(encoded, np.ndarray) and encoded.shape == (width,)
        assert codec.decode_or_none(encoded) == value  # exact, no serialization

    def test_width_mismatch_rejected(self):
        codec = vector_codec(3)
        with pytest.raises(ProgramError):
            codec.encode([1.0, 2.0])
        with pytest.raises(ProgramError):
            codec.encode([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ProgramError):
            codec.encode(2.5)

    @pytest.mark.parametrize("width", [1, 2, 5])
    def test_array_roundtrip_property(self, width):
        # decode_array(encode_array(x)) == x for random partitions.
        codec = vector_codec(width)
        rng = np.random.default_rng(17 * width)
        values = rng.standard_normal((23, width))
        valid = rng.random(23) > 0.3
        encoded = codec.encode_array(values, valid)
        decoded = codec.decode_array(encoded, valid)
        assert decoded.shape == (23, width)
        assert np.array_equal(decoded[valid], values[valid])

    def test_decode_list_maps_nulls_to_none(self):
        codec = vector_codec(2)
        values = np.array([[1.0, 2.0], [0.0, 0.0], [3.0, 4.0]])
        valid = np.array([True, False, True])
        assert codec.decode_list(values, valid) == [[1.0, 2.0], None, [3.0, 4.0]]

    def test_empty_partition(self):
        codec = vector_codec(6)
        empty = np.empty((0, 6), dtype=np.float64)
        no_rows = np.empty(0, dtype=bool)
        assert codec.decode_array(empty, no_rows).shape == (0, 6)
        assert codec.encode_array(empty, no_rows).shape == (0, 6)
        assert codec.decode_list(empty, no_rows) == []

    def test_flat_empty_input_normalizes_shape(self):
        # Concatenations of zero chunks can degrade to 1-D empties; the
        # codec reshapes them back to (0, k).
        codec = vector_codec(4)
        flat = np.empty(0, dtype=np.float64)
        assert codec.decode_array(flat, np.empty(0, dtype=bool)).shape == (0, 4)


class TestConfig:
    def test_defaults_valid(self):
        config = VertexicaConfig().validated()
        assert config.input_strategy == "union"
        assert config.update_strategy == "update"

    def test_with_overrides(self):
        config = VertexicaConfig().with_overrides(
            n_partitions=16, n_workers=2, data_plane="shards"
        )
        assert config.n_partitions == 16 and config.n_workers == 2

    def test_thread_executor_removed(self):
        with pytest.raises(VertexicaError, match="thread executor was removed"):
            VertexicaConfig(executor="threads").validated()

    def test_parallel_workers_require_the_shard_plane(self):
        with pytest.raises(VertexicaError, match="data_plane='shards'"):
            VertexicaConfig(n_workers=2, data_plane="sql").validated()

    def test_benchmark_process_spelling_validates(self):
        config = VertexicaConfig().with_overrides(
            data_plane="shards", executor="processes", n_workers=2
        )
        assert (config.data_plane, config.executor, config.n_workers) == (
            "shards", "processes", 2
        )

    @pytest.mark.parametrize(
        "field,value",
        [
            ("n_partitions", 0),
            ("n_workers", 0),
            ("input_strategy", "magic"),
            ("update_strategy", "yolo"),
            ("compute_strategy", "batch"),  # removed: "auto" picks batch
            ("max_supersteps", 0),
            ("n_partitions", 2.5),
            ("n_partitions", True),
            ("n_workers", 2.0),
            ("n_workers", False),
            ("max_supersteps", 2.5),
            ("max_supersteps", True),
            ("checkpoint_every", 1.5),
            ("checkpoint_every", True),
            ("task_retries", 0.5),
            ("task_retries", False),
        ],
    )
    def test_invalid_settings_rejected(self, field, value):
        with pytest.raises(VertexicaError):
            VertexicaConfig(**{field: value}).validated()

    def test_numpy_integers_accepted(self):
        config = VertexicaConfig(
            n_partitions=np.int64(3),
            n_workers=np.int32(2),
            max_supersteps=np.uint8(4),
            data_plane="shards",
        ).validated()
        assert (config.n_partitions, config.n_workers, config.max_supersteps) == (3, 2, 4)

    @pytest.mark.parametrize("name", ["n_partition", "max_superstep"])
    def test_unknown_override_rejected(self, name):
        # A misspelt field names itself and the valid fields instead of
        # escaping as the dataclass's TypeError.
        with pytest.raises(VertexicaError, match=f"{name}.*valid fields: n_partitions, "):
            VertexicaConfig().with_overrides(**{name: 3})

    def test_frozen(self):
        config = VertexicaConfig()
        with pytest.raises(Exception):
            config.n_workers = 5

    @pytest.mark.parametrize(
        "field,value",
        [("input_strategy", "join"), ("update_strategy", "replace")],
    )
    def test_sql_plane_ablation_rejected_under_shards(self, field, value):
        # The shard plane has no input query and no update/replace stage:
        # the error names the field and the plane instead of ignoring it.
        assert VertexicaConfig(**{field: value}).validated()  # fine on the SQL plane
        with pytest.raises(VertexicaError, match=f"{field}=.*data_plane='shards'"):
            VertexicaConfig(data_plane="shards", **{field: value}).validated()

    def test_every_sync_rejected(self):
        # A table write after every superstep was removed: "halt" is the
        # one value, the default on both planes.
        for plane in ("sql", "shards"):
            with pytest.raises(VertexicaError, match="'every' was removed"):
                VertexicaConfig(data_plane=plane, superstep_sync="every").validated()
            assert VertexicaConfig(data_plane=plane).validated().superstep_sync == "halt"

    def test_every_benchmark_workload_config_validates(self, monkeypatch):
        """Each override set the perf benchmark passes to ``vx.run`` stays
        valid on a default session (the view and serving workloads run
        on ``SHARDS`` or the defaults)."""
        perf = Path(__file__).resolve().parents[2] / "benchmarks" / "perf"
        monkeypatch.syspath_prepend(str(perf))
        spec = importlib.util.spec_from_file_location("perf_workloads", perf / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
        try:
            spec.loader.exec_module(workloads)  # imports its siblings inputs, oracles
            overrides = [{}, workloads.SHARDS]
            for name in workloads.WORKLOADS:
                built = workloads.build(name, seed=5, smoke=True)
                overrides.append(getattr(built, "options", {}))
        finally:
            for sibling in ("inputs", "oracles"):
                sys.modules.pop(sibling, None)
        assert any(options.get("executor") == "processes" for options in overrides)
        for options in overrides:
            assert VertexicaConfig().with_overrides(**options)
