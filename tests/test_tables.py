"""Catalogue integrity: golden transcription, homogeneity, leading terms."""

from __future__ import annotations

import pytest

from charclass import tables
from charclass.algebra import atom, landweber_novikov, quotient_chern, render
from charclass.report import all_passed
from charclass.tables import (
    TableMissError,
    entries,
    golden_roundtrip,
    ssm_series,
    thom_polynomial,
    validate_tables,
)

C1 = atom(quotient_chern(1))
C2 = atom(quotient_chern(2))
C3 = atom(quotient_chern(3))


def s_atom(index, kappa):
    return atom(landweber_novikov(index), kappa=kappa)


EXPECTED_CATALOGUE = {
    # (name, kappa) -> codim for the locus classes
    ("A1", 0): 1,
    ("A2", 0): 2,
    ("A1^2", 0): 2,
    ("A3", 0): 3,
    ("A1^3", 0): 3,
    ("A1A2", 0): 3,
    ("A2A1", 0): 3,
    ("A0^2", 1): 1,
    ("A1", 1): 2,
    ("A0^3", 1): 2,
    ("A0A1", 1): 3,
    ("A1A0", 1): 3,
    ("A0^4", 1): 3,
}

EXPECTED_VALIDITY = {
    ("A1", 0): 4,
    ("A1", 1): 3,
    ("A0^2", 1): 2,
    ("image", 1): 3,
    ("image_double", 1): 3,
}


class TestCatalogue:
    def test_locus_classes_present(self):
        for (name, kappa), codim in EXPECTED_CATALOGUE.items():
            entry = thom_polynomial(name, kappa)
            assert entry.codim == codim
            assert entry.valid_to_weight is None

    def test_series_validity_orders(self):
        for (name, kappa), valid in EXPECTED_VALIDITY.items():
            assert ssm_series(name, kappa).valid_to_weight == valid

    def test_no_extra_entries(self):
        names = {(e.name, e.kappa) for e in entries()}
        expected = set(EXPECTED_CATALOGUE) | {
            ("sm:" + n, k) for n, k in EXPECTED_VALIDITY
        }
        assert names == expected

    def test_table_miss(self):
        with pytest.raises(TableMissError):
            thom_polynomial("A4", 0)
        with pytest.raises(TableMissError):
            thom_polynomial("A1", 2)
        with pytest.raises(TableMissError):
            ssm_series("A0^3", 1)


class TestSpotValues:
    def test_simple_rows(self):
        assert thom_polynomial("A1", 0).body == C1
        assert thom_polynomial("A1", 1).body == C2
        assert thom_polynomial("A2", 0).body == C1 ** 2 + C2
        assert thom_polynomial("A3", 0).body == C1 ** 3 + 3 * C1 * C2 + 2 * C3

    def test_double_point_row(self):
        s0 = s_atom((), 1)
        assert thom_polynomial("A0^2", 1).body == s0 - C1

    def test_triple_point_row(self):
        s0, s1 = s_atom((), 1), s_atom((1,), 1)
        expected = (s0 ** 2 - s1 - 2 * s0 * C1 + 2 * C1 ** 2 + 2 * C2) / 2
        assert thom_polynomial("A0^3", 1).body == expected

    def test_stationary_rows(self):
        s0, s01 = s_atom((), 1), s_atom((0, 1), 1)
        assert thom_polynomial("A0A1", 1).body == s01 - 2 * C1 * C2 - 2 * C3
        assert thom_polynomial("A1A0", 1).body == s0 * C2 - 2 * C1 * C2 - 2 * C3

    def test_quadruple_point_row(self):
        s0, s1, s2, s01 = (s_atom(i, 1) for i in [(), (1,), (2,), (0, 1)])
        expected = (
            s0 ** 3 - 3 * s0 * s1 + 2 * s2 + 2 * s01 - 3 * s0 ** 2 * C1
            + 3 * s1 * C1 + 6 * s0 * C1 ** 2 + 6 * s0 * C2
            - 6 * C1 ** 3 - 18 * C1 * C2 - 12 * C3
        ) / 6
        assert thom_polynomial("A0^4", 1).body == expected

    def test_euler_series_values(self):
        assert ssm_series("A1", 1).body == C2 - (C1 * C2 + C3)
        assert ssm_series("A1", 0).body == C1 - C1 ** 2 + C1 ** 3 - (
            C1 ** 4 + C2 ** 2 - C1 * C3
        )

    def test_euler_series_weight_components(self):
        body = ssm_series("A1", 1).body
        assert body.component(2) == C2
        assert body.component(3) == -(C1 * C2 + C3)
        assert body.component(4).is_zero()

    def test_image_series_leading_terms(self):
        assert ssm_series("image", 1).body.component(0) == 1
        s0 = s_atom((), 1)
        assert ssm_series("A0^2", 1).body.component(1) == s0 - C1
        assert ssm_series("image_double", 1).body.component(1) == (s0 - C1) / 2


class TestValidation:
    def test_homogeneity_example(self):
        # every term of the kappa=0 multi-cusp row has weight 3
        body = thom_polynomial("A1A2", 0).body
        assert body.is_homogeneous(3)

    def test_validate_all(self):
        checks = validate_tables()
        assert checks and all_passed(checks)

    def test_golden_roundtrip(self):
        checks = golden_roundtrip()
        assert checks and all_passed(checks)

    def test_golden_roundtrip_checks_the_registry_objects(self, monkeypatch):
        # the file is compared with the entries the engine uses, so an entry
        # that drifts from its line fails, even though the file still parses
        registry = tables._registry()
        entry = registry[("A1", 0)]
        monkeypatch.setitem(registry, ("A1", 0), entry._replace(body=entry.body + C1))
        failed = [c.name for c in golden_roundtrip() if not c.passed]
        assert failed == ["tables/golden/A1@kappa=0"]

    def test_renderer_is_canonical_for_every_entry(self):
        from charclass.algebra import parse

        for entry in entries():
            text = render(entry.body)
            assert parse(text, kappa=entry.kappa) == entry.body
