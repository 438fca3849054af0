"""Conventional repair baseline: locality -> naive -> generic elimination."""

import pytest

from repro.codes import AzureLrcCode, MdrCode, make_code
from repro.recovery import (
    ALGORITHMS,
    RecoveryPlanner,
    conventional_scheme,
    conventional_scheme_for_mask,
    naive_scheme,
    scheme_for_disk,
)


class TestRouting:
    def test_locality_code_uses_group_equations(self):
        code = AzureLrcCode(6, l_groups=2, g_global=2, w=4)
        scheme = conventional_scheme(code, 0)
        assert scheme.algorithm == "conventional"
        assert scheme.metadata["source"] == "locality"

    def test_plain_code_uses_naive_path(self):
        code = make_code("rdp", 8)
        scheme = conventional_scheme(code, 0)
        assert scheme.algorithm == "conventional"
        assert scheme.metadata["source"] == "naive"
        # identical read pattern to the naive baseline, rebadged
        assert scheme.read_mask == naive_scheme(code, 0).read_mask

    def test_double_failure_falls_back_to_generic_elimination(self):
        """Two failed data disks share every row parity, so the naive
        first-parity heuristic fails; the generic GF(2) elimination over
        all originals must take over and still produce a valid plan."""
        code = make_code("rdp", 8)
        lay = code.layout
        mask = lay.disk_mask(0) | lay.disk_mask(1)
        scheme = conventional_scheme_for_mask(code, mask)
        scheme.validate(code)
        assert scheme.metadata["source"] == "generic"

    def test_every_registry_family_covered(self):
        for family in ("evenodd", "liberation", "xcode", "lrc", "xorbas", "mdr"):
            code = make_code(family, 8 if family != "xcode" else 7)
            for disk in range(code.layout.n_disks):
                conventional_scheme(code, disk).validate(code)


class TestMaskVariant:
    def test_mask_variant_matches_disk_variant(self):
        code = make_code("evenodd", 8)
        mask = code.layout.disk_mask(2)
        a = conventional_scheme(code, 2)
        b = conventional_scheme_for_mask(code, mask, failed_disk=2)
        assert a.read_mask == b.read_mask

    def test_unrecoverable_mask_raises(self):
        code = MdrCode(3)  # tolerates 2 failures
        lay = code.layout
        mask = lay.disk_mask(0) | lay.disk_mask(1) | lay.disk_mask(2)
        with pytest.raises(ValueError):
            conventional_scheme_for_mask(code, mask)


class TestIntegration:
    def test_registered_in_algorithms(self):
        assert ALGORITHMS["conventional"].baseline is conventional_scheme_for_mask

    def test_scheme_for_disk_dispatch(self):
        code = make_code("rdp", 8)
        scheme = scheme_for_disk(code, 1, algorithm="conventional")
        assert scheme.algorithm == "conventional"
        scheme.validate(code)

    def test_planner_accepts_conventional(self):
        code = AzureLrcCode(6, l_groups=2, g_global=2, w=4)
        planner = RecoveryPlanner(code, algorithm="conventional")
        for disk in range(code.layout.n_disks):
            scheme = planner.scheme_for_disk(disk)
            assert scheme.algorithm == "conventional"
            scheme.validate(code)

    def test_u_never_worse_than_conventional_on_lrc(self):
        """The paper's point: the balanced U-scheme beats the industrial
        local repair on max per-disk load (here on Azure-LRC)."""
        from repro.recovery import u_scheme

        code = make_code("lrc", 12)
        for disk in range(code.layout.n_data):
            conv = conventional_scheme(code, disk)
            bal = u_scheme(code, disk)
            assert bal.max_load <= conv.max_load
