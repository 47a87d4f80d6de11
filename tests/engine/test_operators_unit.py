"""Direct unit tests for physical operators (bypassing SQL where they can)."""

import warnings

import numpy as np
import pytest

from repro.engine.batch import RecordBatch
from repro.engine.column import Column
from repro.engine.database import Database
from repro.engine.expressions import BinaryOp, ColumnRef, Literal
from repro.engine.functions import FunctionRegistry
from repro.engine.operators import (
    AggregateOp,
    AggregateSpec,
    AliasOp,
    BatchSourceOp,
    CrossJoinOp,
    DistinctOp,
    FilterOp,
    HashJoinOp,
    LimitOp,
    Operator,
    ProjectOp,
    SortOp,
    UnionAllOp,
    explain_tree,
    factorize_columns,
)
from repro.engine.schema import ColumnDef, Schema
from repro.engine.types import FLOAT, INTEGER, VARCHAR
from repro.errors import PlanError, TypeMismatchError


REGISTRY = FunctionRegistry()


def source(rows, names=("k", "v"), dtypes=(INTEGER, INTEGER), qualifier=None):
    schema = Schema(
        ColumnDef(n, t, qualifier=qualifier) for n, t in zip(names, dtypes)
    )
    return BatchSourceOp(RecordBatch.from_rows(schema.unqualified(), rows), qualifier)


class TestFilterProject:
    def test_filter_keeps_only_true(self):
        op = FilterOp(
            source([(1, 10), (2, None), (3, 30)]),
            BinaryOp(">", ColumnRef("v"), Literal(5)),
            REGISTRY,
        )
        # NULL comparison row is dropped, not kept.
        assert [r[0] for r in op.execute().to_rows()] == [1, 3]

    def test_project_computes_expressions(self):
        op = ProjectOp(
            source([(1, 10), (2, 20)]),
            [BinaryOp("*", ColumnRef("v"), Literal(2))],
            ["doubled"],
            REGISTRY,
        )
        assert op.execute().to_pydict() == {"doubled": [20, 40]}

    def test_alias_requalifies(self):
        op = AliasOp(source([(1, 2)]), "t")
        assert op.schema.column("k", "t").qualifier == "t"


class TestHashJoinUnit:
    def make_join(self, kind, left_rows, right_rows, residual=None):
        left = source(left_rows, qualifier="l")
        right = source(right_rows, names=("k", "w"), qualifier="r")
        return HashJoinOp(
            left, right,
            [ColumnRef("k", "l")], [ColumnRef("k", "r")],
            kind, residual, REGISTRY,
        )

    def test_inner_duplicates_multiply(self):
        op = self.make_join("inner", [(1, 0), (1, 1)], [(1, 10), (1, 20)])
        assert op.execute().num_rows == 4

    def test_left_pads_unmatched(self):
        op = self.make_join("left", [(1, 0), (2, 0)], [(1, 10)])
        rows = sorted(op.execute().to_rows())
        assert rows == [(1, 0, 1, 10), (2, 0, None, None)]

    def test_left_with_residual_keeps_row_when_all_matches_fail(self):
        residual = BinaryOp(">", ColumnRef("w", "r"), Literal(99))
        op = self.make_join("left", [(1, 0)], [(1, 10)], residual)
        assert op.execute().to_rows() == [(1, 0, None, None)]

    def test_requires_keys(self):
        with pytest.raises(PlanError):
            HashJoinOp(source([]), source([]), [], [], "inner", None, REGISTRY)

    def test_rejects_unknown_kind(self):
        with pytest.raises(PlanError):
            self_join = source([(1, 1)])
            HashJoinOp(
                self_join, source([(1, 1)]),
                [ColumnRef("k")], [ColumnRef("k")],
                "full", None, REGISTRY,
            )

    def test_key_type_mismatch_rejected(self):
        left = source([(1, 1)], dtypes=(INTEGER, INTEGER), qualifier="l")
        right = source([("a", "b")], dtypes=(VARCHAR, VARCHAR), qualifier="r")
        with pytest.raises(TypeMismatchError):
            HashJoinOp(
                left, right, [ColumnRef("k", "l")], [ColumnRef("k", "r")],
                "inner", None, REGISTRY,
            )

    def test_mixed_numeric_keys_join(self):
        left = source([(1, 0)], dtypes=(INTEGER, INTEGER), qualifier="l")
        right = source([(1.0, 9.0)], names=("k", "w"), dtypes=(FLOAT, FLOAT), qualifier="r")
        op = HashJoinOp(
            left, right, [ColumnRef("k", "l")], [ColumnRef("k", "r")],
            "inner", None, REGISTRY,
        )
        assert op.execute().num_rows == 1


class TestAggregateUnit:
    def test_spec_combo(self):
        op = AggregateOp(
            source([(1, 10), (1, 30), (2, 5)]),
            [ColumnRef("k")],
            [
                AggregateSpec("COUNT", None),
                AggregateSpec("SUM", ColumnRef("v")),
                AggregateSpec("AVG", ColumnRef("v")),
                AggregateSpec("MIN", ColumnRef("v")),
                AggregateSpec("MAX", ColumnRef("v")),
            ],
            ["k", "n", "total", "mean", "lo", "hi"],
            REGISTRY,
        )
        rows = {r[0]: r[1:] for r in op.execute().to_rows()}
        assert rows[1] == (2, 40, 20.0, 10, 30)
        assert rows[2] == (1, 5, 5.0, 5, 5)

    @pytest.mark.parametrize("grouped", [True, False], ids=["group-by", "global"])
    def test_integer_aggregates_are_exact_above_2_53(self, grouped):
        # Through float64, MIN/MAX/SUM round to (2^53, 2^53 + 4, 2^54 + 4).
        big = 2**53
        op = AggregateOp(
            source([(1, big + 1), (1, None), (1, big + 3)]),
            [ColumnRef("k")] if grouped else [],
            [
                AggregateSpec("MIN", ColumnRef("v")),
                AggregateSpec("MAX", ColumnRef("v")),
                AggregateSpec("SUM", ColumnRef("v")),
            ],
            (["k"] if grouped else []) + ["lo", "hi", "total"],
            REGISTRY,
        )
        (row,) = op.execute().to_rows()
        assert row[-3:] == (big + 1, big + 3, 2 * big + 4)

    def test_min_max_varchar(self):
        op = AggregateOp(
            source([(1, "pear"), (1, "apple")], dtypes=(INTEGER, VARCHAR)),
            [ColumnRef("k")],
            [AggregateSpec("MIN", ColumnRef("v")), AggregateSpec("MAX", ColumnRef("v"))],
            ["k", "lo", "hi"],
            REGISTRY,
        )
        assert op.execute().to_rows() == [(1, "apple", "pear")]

    def test_empty_input_with_groups_is_empty(self):
        op = AggregateOp(
            source([]),
            [ColumnRef("k")],
            [AggregateSpec("COUNT", None)],
            ["k", "n"],
            REGISTRY,
        )
        assert op.execute().num_rows == 0

    def test_float_moments_over_both_infinities_are_nan_without_warning(self):
        # +inf + -inf is NaN, IEEE's answer; numpy must not warn about it
        # (under -W error the warning would be a crash).
        db = Database()
        db.execute("CREATE TABLE t (k INTEGER, x FLOAT)")
        for row in [(1, np.inf), (1, -np.inf), (1, 2.0), (2, 1.0), (2, 3.0)]:
            db.execute("INSERT INTO t VALUES (?, ?)", list(row))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = db.execute(
                "SELECT k, SUM(x), AVG(x), STDDEV(x) FROM t GROUP BY k ORDER BY k"
            ).rows()
        assert all(np.isnan(v) for v in rows[0][1:])
        assert rows[1] == (2, 4.0, 2.0, pytest.approx(np.sqrt(2.0)))

    def test_stddev_single_value_is_null(self):
        op = AggregateOp(
            source([(1, 5)]),
            [ColumnRef("k")],
            [AggregateSpec("STDDEV", ColumnRef("v"))],
            ["k", "sd"],
            REGISTRY,
        )
        assert op.execute().to_rows() == [(1, None)]


class TestSortLimitDistinctUnit:
    def test_sort_desc_nulls_first(self):
        op = SortOp(
            source([(1, 10), (2, None), (3, 5)]),
            [ColumnRef("v")],
            [False],
            REGISTRY,
        )
        assert [r[0] for r in op.execute().to_rows()] == [2, 1, 3]

    def test_sort_desc_int64_minimum_sorts_last(self):
        # Negating the key overflows at the int64 minimum: it sorted first.
        lo = int(np.iinfo(np.int64).min)
        op = SortOp(source([(1, lo), (2, 0), (3, -1)]), [ColumnRef("v")], [False], REGISTRY)
        assert [r[1] for r in op.execute().to_rows()] == [0, -1, lo]

    def test_limit_beyond_rows(self):
        op = LimitOp(source([(1, 1)]), 100, 0)
        assert op.execute().num_rows == 1

    def test_offset_beyond_rows(self):
        op = LimitOp(source([(1, 1)]), None, 5)
        assert op.execute().num_rows == 0

    def test_distinct_with_nulls(self):
        op = DistinctOp(source([(1, None), (1, None), (2, 5)]))
        assert op.execute().num_rows == 2

    def test_cross_join_empty_side(self):
        op = CrossJoinOp(
            source([(1, 1)], qualifier="a"), source([], qualifier="b")
        )
        assert op.execute().num_rows == 0

    def test_union_all_three_inputs(self):
        op = UnionAllOp([source([(1, 1)]), source([(2, 2)]), source([(3, 3)])])
        assert op.execute().num_rows == 3


class TestFactorizeEdgeCases:
    def test_requires_columns(self):
        with pytest.raises(Exception):
            factorize_columns([])

    def test_all_null_column(self):
        col = Column.from_values(INTEGER, [None, None, None])
        codes, n_groups = factorize_columns([col])
        assert n_groups == 1
        assert set(codes.tolist()) == {0}

    def test_many_columns_no_overflow(self):
        cols = [
            Column.from_values(INTEGER, list(range(50))) for _ in range(8)
        ]
        codes, n_groups = factorize_columns(cols)
        assert n_groups == 50


class TestExplainTree:
    def test_indentation(self):
        op = LimitOp(FilterOp(
            source([(1, 2)]),
            BinaryOp("=", ColumnRef("k"), Literal(1)),
            REGISTRY,
        ), 1, 0)
        text = explain_tree(op)
        lines = text.splitlines()
        assert lines[0].startswith("Limit")
        assert lines[1].startswith("  Filter")
        assert lines[2].startswith("    BatchSource")
