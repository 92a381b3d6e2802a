"""Preset degree tables against their classical derivations."""

from __future__ import annotations

import pytest

from charclass.algebra import degree_symbol
from charclass.presets import (
    hypersurface_xi,
    preset_context,
    preset_document,
    preset_names,
    veronese_xi,
)

D = degree_symbol()


class TestVeroneseTables:
    def test_plane_conics(self):
        # tangent classes of the plane are 3h, 3h^2; pullback class 2h;
        # degrees 2^2, 3*2, 9, 3
        xi = veronese_xi(2)
        assert {k: str(v) for k, v in xi.items()} == {
            "d": "4", "xi1": "6", "xi01": "3", "xi2": "9",
        }

    def test_space_quadrics(self):
        xi = veronese_xi(3)
        assert {k: str(v) for k, v in xi.items()} == {
            "d": "8", "xi1": "16", "xi01": "12", "xi2": "32",
            "xi001": "4", "xi11": "24", "xi3": "64",
        }


class TestHypersurfaceTables:
    def test_quintic_surface(self):
        xi = hypersurface_xi(2, 5)
        assert {k: str(v) for k, v in xi.items()} == {
            "d": "5", "xi1": "-5", "xi01": "55", "xi2": "5",
        }

    def test_symbolic_surface(self):
        xi = hypersurface_xi(2)
        assert xi["d"] == D
        assert xi["xi1"] == D * (4 - D)
        assert xi["xi2"] == D * (4 - D) ** 2
        assert xi["xi01"] == D * (6 - 4 * D + D ** 2)

    def test_symbolic_threefold(self):
        xi = hypersurface_xi(3)
        assert xi["xi1"] == D * (5 - D)
        assert xi["xi001"] == D * (10 - 10 * D + 5 * D ** 2 - D ** 3)


class TestPresetRegistry:
    def test_names(self):
        assert preset_names() == [
            "roman-surface", "smooth-surface", "smooth-threefold", "veronese-p3",
        ]

    def test_context_kinds(self):
        kind, ctx = preset_context("roman-surface")
        assert kind == "surface" and (ctx.source_dim, ctx.target_dim) == (2, 3)
        kind, ctx = preset_context("veronese-p3")
        assert kind == "threefold" and (ctx.source_dim, ctx.target_dim) == (3, 4)

    def test_smooth_presets_take_degree(self):
        _, ctx = preset_context("smooth-surface", 5)
        assert ctx.xi_scalar(()) == 5
        _, sym = preset_context("smooth-surface")
        assert not sym.is_numeric()

    def test_document_round(self):
        doc = preset_document("veronese-p3")
        assert doc["kind"] == "threefold"
        assert doc["chern_data"]["xi001"] == "4"

    def test_document_requires_degree(self):
        with pytest.raises(ValueError, match="--degree"):
            preset_document("smooth-surface")
        with pytest.raises(ValueError):
            preset_document("roman-surface", 3)

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset_context("klein-bottle")
