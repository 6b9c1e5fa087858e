"""The record contract: the thirteen parameter and result records are plain
classes on ``zetaforge.Record`` and keep the behaviour of the dataclasses
they replace.  Each is built by position and by keyword, compares equal on
equal fields, starts its repr with its name and serializes to its fields in
order; the five frozen ones hash by their fields and refuse assignment."""

from fractions import Fraction

import pytest

from zetaforge import FrozenRecord, Record
from zetaforge.aperynum import CongruenceReport, ZetaCombo
from zetaforge.cli import _jsonify
from zetaforge.padic import Padic
from zetaforge.resum import BorelReport
from zetaforge.series import LinearDiffOp, QSeries, W2Report
from zetaforge.spectra import HeatTraceFit, QrmParams, RabiBernoulli, SpectrumResult
from zetaforge.specval import NchoParams, QuadratureResult

F = Fraction

# class, its fields in order (as the dataclasses declared them), one valid
# value for each field
RECORDS = [
    (ZetaCombo, ("coeffs",), ((("ONE", F(1, 2)),),)),
    (
        CongruenceReport,
        ("kind", "params", "lhs_residue", "rhs_residue", "modulus", "ok", "note"),
        ("super-A2", {"p": 5}, 3, 3, 125, True, "r = 1"),
    ),
    (Padic, ("p", "val", "unit", "prec"), (5, -1, 7, 10)),
    (
        BorelReport,
        ("z", "borel_sum", "quadrature_error", "reference_value", "agreement", "tolerance", "method"),
        (0.3, 1.25, 1e-12, 1.25, True, 1e-8, "laplace-split"),
    ),
    (QSeries, ("coeffs", "max24"), ({0: 1, 24: F(1, 3)}, 48)),
    (LinearDiffOp, ("c0", "c1", "c2", "name"), ((F(1),), (F(0), F(2)), (F(1),), "L")),
    (
        W2Report,
        ("matched", "convention_used", "first_mismatch", "max_exponent", "variants"),
        (False, None, F(3), F(10), [{"convention": "z"}]),
    ),
    (QrmParams, ("g", "delta", "eps"), (0.3, 0.5, 0.1)),
    (
        SpectrumResult,
        ("eigenvalues", "model", "params", "truncation_N", "convergence", "section_N", "index_proved"),
        ([0.5, 1.5], "qrm", QrmParams(0.3, 0.5), 64, [1e-15, 2e-15], 32, True),
    ),
    (
        HeatTraceFit,
        ("c_minus1", "odd_coeffs", "even_coeffs", "residual", "t_grid"),
        (1.5, [0.1, 0.2], None, 1e-9, [0.1, 0.2]),
    ),
    (RabiBernoulli, ("k", "terms"), (1, {(1, 0, 0): F(1)})),
    (NchoParams, ("alpha", "beta"), (2.0, 1.0)),
    (
        QuadratureResult,
        ("value", "std_error", "samples_or_nodes", "method", "seed"),
        (1.2, 1e-3, 1000, "MONTE_CARLO", 7),
    ),
]
FROZEN = {ZetaCombo, Padic, LinearDiffOp, QrmParams, NchoParams}
IDS = [cls.__name__ for cls, _, _ in RECORDS]


def test_thirteen_records_five_frozen():
    assert len(RECORDS) == 13
    assert {cls for cls, _, _ in RECORDS if issubclass(cls, FrozenRecord)} == FROZEN
    assert all(issubclass(cls, Record) for cls, _, _ in RECORDS)


@pytest.mark.parametrize("cls, fields, values", RECORDS, ids=IDS)
def test_built_by_position_and_by_keyword(cls, fields, values):
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(fields, values)))
    assert [getattr(by_position, f) for f in fields] == list(values)
    assert by_keyword == by_position
    assert cls.__slots__ == fields


# class, the fields given by position, the defaulted fields and their defaults
DEFAULTS = [
    (CongruenceReport, ("super-A2", {}, 1, 1, 5, True), {"note": ""}),
    (BorelReport, (0.3, 1.0, 0.0, 1.0, True, 1e-8), {"method": ""}),
    (LinearDiffOp, ((F(1),), (), ()), {"name": ""}),
    (W2Report, (True, "z", None, F(4)), {"variants": []}),
    (QrmParams, (0.3, 0.5), {"eps": 0.0}),
    (QuadratureResult, (1.0, 0.0, 16, "TENSOR_GAUSS"), {"seed": None}),
]


@pytest.mark.parametrize("cls, given, defaults", DEFAULTS, ids=[c.__name__ for c, _, _ in DEFAULTS])
def test_defaults(cls, given, defaults):
    record = cls(*given)
    assert {name: getattr(record, name) for name in defaults} == defaults


def test_default_variants_are_not_shared():
    first, second = W2Report(True, "z", None, F(4)), W2Report(True, "z", None, F(4))
    first.variants.append("tried")
    assert second.variants == []


@pytest.mark.parametrize("cls, fields, values", RECORDS, ids=IDS)
def test_equality_is_field_wise(cls, fields, values):
    assert cls(*values) == cls(*values)
    assert not cls(*values) != cls(*values)
    # a record never equals a tuple of its fields or another record type
    assert cls(*values) != tuple(values)
    other = next(c(*v) for c, _, v in RECORDS if c is not cls)
    assert cls(*values) != other


DIFFERING = [
    (ZetaCombo.of({"ONE": 1}), ZetaCombo.of({"ONE": 2})),
    (Padic(5, 0, 1, 10), Padic(5, 0, 2, 10)),
    (QSeries({0: 1}, 24), QSeries({0: 1}, 48)),
    (NchoParams(2.0, 1.0), NchoParams(1.0, 2.0)),
    (QrmParams(0.3, 0.5), QrmParams(0.3, 0.5, 0.1)),
    (QuadratureResult(1.0, 0.0, 16, "TENSOR_GAUSS"), QuadratureResult(1.0, 0.0, 16, "MONTE_CARLO")),
]


@pytest.mark.parametrize("first, second", DIFFERING, ids=[type(a).__name__ for a, _ in DIFFERING])
def test_a_differing_field_breaks_equality(first, second):
    assert first != second


@pytest.mark.parametrize("cls, fields, values", [r for r in RECORDS if r[0] in FROZEN],
                         ids=[c.__name__ for c, _, _ in RECORDS if c in FROZEN])
def test_frozen_records_hash_by_fields_and_refuse_assignment(cls, fields, values):
    record = cls(*values)
    assert hash(record) == hash(cls(*values))
    assert len({record, cls(*values)}) == 1
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert [getattr(record, f) for f in fields] == list(values)


@pytest.mark.parametrize("cls, fields, values", [r for r in RECORDS if r[0] not in FROZEN],
                         ids=[c.__name__ for c, _, _ in RECORDS if c not in FROZEN])
def test_mutable_records_are_unhashable_and_assignable(cls, fields, values):
    record = cls(*values)
    with pytest.raises(TypeError):
        hash(record)
    setattr(record, fields[-1], None)
    assert getattr(record, fields[-1]) is None
    # a record holds its fields only
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("cls, fields, values", RECORDS, ids=IDS)
def test_repr_names_the_class_and_its_fields(cls, fields, values):
    text = repr(cls(*values))
    assert text.startswith(f"{cls.__name__}(")
    assert text == f"{cls.__name__}(" + ", ".join(f"{f}={v!r}" for f, v in zip(fields, values)) + ")"


@pytest.mark.parametrize("cls, fields, values", RECORDS, ids=IDS)
def test_jsonify_writes_every_field_in_order(cls, fields, values):
    payload = _jsonify(cls(*values))
    assert list(payload) == list(fields)
    assert payload == {f: _jsonify(v) for f, v in zip(fields, values)}


def test_nested_records_serialize():
    spec = SpectrumResult([0.5], "qrm", QrmParams(0.3, 0.5), 64, [0.0], 32, True)
    assert _jsonify(spec)["params"] == {"g": 0.3, "delta": 0.5, "eps": 0.0}
