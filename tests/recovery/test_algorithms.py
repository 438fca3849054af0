"""Behavioural tests of naive / Khan / C / U generators on real codes."""

import pytest

from repro.codes import (
    EvenOddCode,
    Liber8tionCode,
    RdpCode,
    StarCode,
    make_code,
)
from repro.recovery import (
    c_scheme,
    khan_scheme,
    naive_scheme,
    scheme_for_disk,
    u_scheme,
)

SMALL_CODES = [
    pytest.param(lambda: RdpCode(7), id="rdp7"),
    pytest.param(lambda: EvenOddCode(5), id="evenodd5"),
    pytest.param(lambda: StarCode(5), id="star5"),
    pytest.param(lambda: Liber8tionCode(6), id="liber8tion6"),
    pytest.param(lambda: make_code("blaum_roth", 8), id="blaum-roth8"),
    pytest.param(lambda: make_code("liberation", 8), id="liberation8"),
]


@pytest.mark.parametrize("factory", SMALL_CODES)
class TestOrderingInvariants:
    """The paper's core inequalities, for every data disk."""

    def test_khan_total_le_naive(self, factory):
        code = factory()
        for d in code.layout.data_disks:
            assert khan_scheme(code, d).total_reads <= naive_scheme(code, d).total_reads

    def test_c_total_equals_khan_total(self, factory):
        code = factory()
        for d in code.layout.data_disks:
            assert c_scheme(code, d).total_reads == khan_scheme(code, d).total_reads

    def test_c_maxload_le_khan_maxload(self, factory):
        code = factory()
        for d in code.layout.data_disks:
            assert c_scheme(code, d).max_load <= khan_scheme(code, d).max_load

    def test_u_maxload_le_c_maxload(self, factory):
        code = factory()
        for d in code.layout.data_disks:
            assert u_scheme(code, d).max_load <= c_scheme(code, d).max_load

    def test_u_total_ge_khan_total(self, factory):
        """U may read more in total — never less than the minimum."""
        code = factory()
        for d in code.layout.data_disks:
            assert u_scheme(code, d).total_reads >= khan_scheme(code, d).total_reads

    def test_all_schemes_valid(self, factory):
        code = factory()
        for d in list(code.layout.data_disks)[:3]:
            for fn in (naive_scheme, khan_scheme, c_scheme, u_scheme):
                fn(code, d).validate(code)


class TestPaperFigure1:
    """RDP p=7, disk 0 failed (paper Figure 1)."""

    def test_khan_reads_27_elements(self):
        code = RdpCode(7)
        assert khan_scheme(code, 0).total_reads == 27  # 25% below naive's 36

    def test_naive_reads_36_elements(self):
        code = RdpCode(7)
        s = naive_scheme(code, 0)
        assert s.total_reads == 36
        assert s.max_load == 6

    def test_c_scheme_balances_to_4(self):
        """Figure 1(b): minimal read *and* max load 4 on every disk."""
        code = RdpCode(7)
        s = c_scheme(code, 0)
        assert s.total_reads == 27
        assert s.max_load == 4

    def test_c_equals_u_for_unshortened_rdp(self):
        """Sec. V-A: 'in RDP code ... without shorten method, the numbers of
        parallel read accesses in C-Scheme and U-Scheme are the same'."""
        code = RdpCode(7)
        for d in code.layout.data_disks:
            assert c_scheme(code, d).max_load == u_scheme(code, d).max_load


class TestPaperFigure2:
    """Irregular w=8 code, disk 1 failed (paper Figure 2 phenomenon)."""

    def test_u_lowers_maxload_at_total_cost(self):
        code = Liber8tionCode(8)
        c = c_scheme(code, 1, depth=1)
        u = u_scheme(code, 1, depth=1)
        assert u.max_load < c.max_load
        assert u.total_reads >= c.total_reads


class TestNaive:
    def test_naive_reads_all_rows_of_surviving_data_disks(self):
        code = RdpCode(5)
        s = naive_scheme(code, 0)
        lay = code.layout
        for d in range(1, lay.n_data):
            assert lay.load_of_disk(s.read_mask, d) == lay.k_rows
        # first parity disk fully read, diagonal parity untouched
        assert lay.load_of_disk(s.read_mask, lay.n_data) == lay.k_rows
        assert lay.load_of_disk(s.read_mask, lay.n_data + 1) == 0

    def test_naive_parity_disk_failure(self):
        code = RdpCode(5)
        s = naive_scheme(code, code.layout.n_data)
        s.validate(code)


class TestDispatch:
    def test_scheme_for_disk_routes(self):
        code = RdpCode(5)
        for alg in ("naive", "khan", "c", "u"):
            s = scheme_for_disk(code, 0, algorithm=alg)
            assert s.algorithm == alg

    def test_unknown_algorithm(self):
        code = RdpCode(5)
        with pytest.raises(ValueError, match="unknown algorithm"):
            scheme_for_disk(code, 0, algorithm="zzz")


class TestHeterogeneous:
    def test_weighted_u_avoids_slow_disk(self):
        """A very expensive disk should carry fewer reads under weighting."""
        from repro.recovery import scheme_for_mask

        code = RdpCode(7)
        lay = code.layout
        failed = lay.disk_mask(0)
        uniform = scheme_for_mask(code, failed, "u")
        # make disk 3 10x slower
        weights = [1.0] * lay.n_disks
        weights[3] = 10.0
        weighted = scheme_for_mask(code, failed, "u", weights=weights)
        assert lay.load_of_disk(weighted.read_mask, 3) <= lay.load_of_disk(
            uniform.read_mask, 3
        )
        assert weighted.weighted_max_load(weights) <= uniform.weighted_max_load(
            weights
        )

    def test_uniform_weights_match_plain_u(self):
        from repro.recovery import scheme_for_mask

        code = RdpCode(5)
        failed = code.layout.disk_mask(1)
        plain = scheme_for_mask(code, failed, "u")
        ones = scheme_for_mask(code, failed, "u", weights=[1.0] * code.layout.n_disks)
        assert plain.max_load == ones.max_load
        assert plain.total_reads == ones.total_reads
