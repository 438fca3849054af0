"""Tests for the repro-recovery CLI."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_family(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scheme", "--family", "nope"])


class TestCommands:
    def test_families(self, capsys):
        assert main(["families"]) == 0
        out = capsys.readouterr().out
        assert "rdp" in out and "star" in out

    def test_scheme_renders(self, capsys):
        assert main(["scheme", "--family", "rdp", "--disks", "7",
                     "--algorithm", "u"]) == 0
        out = capsys.readouterr().out
        assert "u-scheme" in out
        assert "X" in out  # failed markers in the stripe picture

    def test_naive_scheme(self, capsys):
        assert main(["scheme", "--family", "evenodd", "--disks", "7",
                     "--algorithm", "naive"]) == 0
        assert "naive-scheme" in capsys.readouterr().out

    def test_verify(self, capsys):
        assert main(["verify", "--family", "rdp", "--disks", "7"]) == 0
        assert "byte-exact" in capsys.readouterr().out

    def test_simulate(self, capsys):
        assert main(["simulate", "--family", "rdp", "--disks", "7"]) == 0
        out = capsys.readouterr().out
        assert "MB/s" in out
        assert "khan" in out

    def test_simulate_dense_code_has_no_naive_scheme(self, capsys):
        """A dense code has no single-equation naive scheme: the row says
        so and the other algorithms still run."""
        assert main(["simulate", "--family", "cauchy_rs", "--disks", "8",
                     "--stacks", "2"]) == 0
        rows = {
            alg.strip(): speed.strip()
            for alg, speed in (
                line.split(":", 1)
                for line in capsys.readouterr().out.splitlines()[1:]
            )
        }
        assert rows["naive"] == "n/a"
        assert rows["u"].endswith("MB/s")

    def test_figure3_small_range(self, capsys, tmp_path):
        assert main(["figure3", "--family", "evenodd", "--min-disks", "7",
                     "--max-disks", "8", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out and "khan" in out

    def test_figure4_small_range(self, capsys, tmp_path):
        assert main(["figure4", "--family", "rdp", "--min-disks", "7",
                     "--max-disks", "8", "--cache-dir", str(tmp_path)]) == 0
        assert "Figure 4" in capsys.readouterr().out

    def test_figure3_with_plot(self, capsys, tmp_path):
        assert main(["figure3", "--family", "rdp", "--min-disks", "7",
                     "--max-disks", "8", "--cache-dir", str(tmp_path),
                     "--plot"]) == 0
        out = capsys.readouterr().out
        assert "o=khan" in out  # the ASCII chart legend

    def test_stats(self, capsys):
        assert main(["stats", "--family", "rdp", "--disks", "7"]) == 0
        out = capsys.readouterr().out
        assert "overlap" in out and "naive" in out

    def test_degraded(self, capsys):
        assert main(["degraded", "--family", "rdp", "--disks", "8",
                     "--failed-disk", "0", "--rows", "1,3"]) == 0
        out = capsys.readouterr().out
        assert "degraded read of rows [1, 3]" in out
        assert "X" in out

    def test_validate(self, capsys):
        assert main(["validate", "--family", "star", "--disks", "8"]) == 0
        out = capsys.readouterr().out
        assert "[ok]" in out and "fault tolerance=3" in out

    def test_recover_clean(self, capsys):
        assert main(["recover", "--family", "rdp", "--disks", "7",
                     "--failed-disk", "0", "--stripes", "2"]) == 0
        out = capsys.readouterr().out
        assert "no faults" in out
        assert "recovered data byte-exact" in out

    def test_recover_with_injected_faults(self, capsys):
        assert main(["recover", "--family", "rdp", "--disks", "7",
                     "--failed-disk", "0", "--stripes", "3",
                     "--inject", "lse:2:1:0", "--inject", "die:4:2"]) == 0
        out = capsys.readouterr().out
        assert "latent sector error" in out
        assert "ESCALATED at stripe 2" in out
        assert "recovered data byte-exact" in out

    def test_recover_bad_spec_exits_2(self, capsys):
        assert main(["recover", "--family", "rdp", "--disks", "7",
                     "--failed-disk", "0", "--inject", "nope:1:2"]) == 2
        assert "bad fault spec" in capsys.readouterr().err

    def test_recover_beyond_tolerance_exits_1(self, capsys):
        assert main(["recover", "--family", "rdp", "--disks", "7",
                     "--failed-disk", "0", "--stripes", "3",
                     "--inject", "die:2:1", "--inject", "die:3:2"]) == 1
        assert "UNRECOVERABLE" in capsys.readouterr().out

    def test_serve_hotspot_with_qos(self, capsys, tmp_path):
        store = tmp_path / "plans.json"
        assert main(["serve", "--family", "rdp", "--disks", "7",
                     "--stripes", "14", "--element-size", "32",
                     "--requests", "100", "--clients", "2",
                     "--chunk-stripes", "7", "--element-read-ms", "0.1",
                     "--plan-cache", str(store)]) == 0
        out = capsys.readouterr().out
        assert "qos" in out
        assert "byte-exact" in out
        assert store.exists()

    def test_serve_sequential_no_qos(self, capsys):
        assert main(["serve", "--family", "rdp", "--disks", "7",
                     "--stripes", "14", "--element-size", "32",
                     "--requests", "100", "--workload", "sequential",
                     "--no-qos", "--chunk-stripes", "7",
                     "--element-read-ms", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "qos off" in out
        assert "byte-exact" in out

    def test_serve_with_faults(self, capsys):
        assert main(["serve", "--family", "rdp", "--disks", "7",
                     "--stripes", "7", "--element-size", "32",
                     "--requests", "60", "--chunk-stripes", "7",
                     "--element-read-ms", "0.1",
                     "--inject", "lse:1:0:0"]) == 0
        assert "byte-exact" in capsys.readouterr().out

    def test_serve_rejects_bad_inject(self, capsys):
        assert main(["serve", "--family", "rdp", "--disks", "7",
                     "--inject", "nonsense"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_trace_writes_valid_jsonl(self, capsys, tmp_path):
        from repro.obs import validate_trace_file

        out = tmp_path / "trace.jsonl"
        assert main(["trace", "--family", "rdp", "--disks", "7",
                     "--out", str(out)]) == 0
        assert "trace written to" in capsys.readouterr().out
        counts = validate_trace_file(out)
        assert counts["meta"] == 1
        assert counts["span"] >= 3   # pipeline, verify, simulate at least
        assert counts["counter"] >= 1

    def test_trace_validate_roundtrip(self, capsys, tmp_path):
        out = tmp_path / "trace.jsonl"
        assert main(["trace", "--family", "evenodd", "--disks", "7",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["trace", "--validate", str(out)]) == 0
        assert "valid repro-trace/1" in capsys.readouterr().out

    def test_trace_validate_rejects_garbage(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "span"}\n')
        assert main(["trace", "--validate", str(bad)]) == 1
        assert "invalid trace" in capsys.readouterr().err

    def test_profile_prints_stage_breakdown(self, capsys):
        assert main(["--profile", "scheme", "--family", "rdp",
                     "--disks", "7"]) == 0
        out = capsys.readouterr().out
        assert "stage breakdown" in out
        assert "search.generate" in out
        assert "counters:" in out

    def test_profile_leaves_recorder_disabled(self, capsys):
        from repro import obs

        assert main(["--profile", "families"]) == 0
        assert not obs.enabled()

    def test_report_small(self, capsys, tmp_path):
        out_file = tmp_path / "r.md"
        assert main(["report", "--min-disks", "7", "--max-disks", "7",
                     "--cache-dir", str(tmp_path), "--no-reliability",
                     "--output", str(out_file)]) == 0
        assert out_file.exists()
        text = out_file.read_text()
        assert "Reproduction report" in text

    def test_rebuild_inline(self, capsys):
        assert main(["rebuild", "--family", "rdp", "--disks", "7",
                     "--stripes", "16", "--element-size", "64",
                     "--workers", "1", "--chunk-stripes", "4"]) == 0
        out = capsys.readouterr().out
        assert "inline-batch" in out
        assert "MB/s" in out
        assert "byte-exact" in out

    def test_rebuild_parallel_with_plan_cache(self, capsys, tmp_path):
        store = tmp_path / "plans.json"
        args = ["rebuild", "--family", "evenodd", "--disks", "7",
                "--failed-disk", "2", "--stripes", "24",
                "--element-size", "64", "--workers", "2",
                "--chunk-stripes", "3", "--plan-cache", str(store)]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "pipeline" in out
        assert "miss(es)" in out
        assert store.exists()
        # warm run served from the on-disk store
        assert main(args) == 0
        assert "0 miss(es)" in capsys.readouterr().out

    def test_rebuild_pool_placement(self, capsys):
        assert main(["rebuild", "--family", "rdp", "--disks", "7",
                     "--placement", "declustered", "--pool-disks", "64",
                     "--stripes", "400", "--element-size", "16",
                     "--failed-disk", "3", "--chunk-stripes", "64"]) == 0
        out = capsys.readouterr().out
        assert "pool    : 64 disks" in out
        assert "flat" in out and "declustered" in out
        assert "lower max-per-disk load than flat" in out
        assert "MISMATCH" not in out

    def test_rebuild_pool_names_the_construction(self, capsys):
        assert main(["rebuild", "--family", "rdp", "--disks", "8",
                     "--placement", "declustered", "--pool-disks", "64",
                     "--stripes", "200", "--element-size", "16"]) == 0
        out = capsys.readouterr().out
        assert "built" in out
        assert "declustered  ag(2,8)" in out

    def test_rebuild_pool_flat_baseline_only(self, capsys):
        assert main(["rebuild", "--family", "rdp", "--disks", "5",
                     "--placement", "flat", "--pool-disks", "24",
                     "--stripes", "60", "--element-size", "16"]) == 0
        out = capsys.readouterr().out
        assert out.count("byte-exact") == 1  # no comparison row

    def test_rebuild_pool_honours_algorithm(self, capsys, monkeypatch):
        """``--placement`` rebuilds with the named algorithm, not always U:
        on liberation@8, where C and U read different disks, the CLI's
        pool reads equal a direct ``PoolRebuild(algorithm="c")``'s."""
        import numpy as np

        import repro.pipeline
        from repro.codes import make_code
        from repro.pipeline import PoolRebuild
        from repro.placement import PoolStore, make_placement

        results = []

        class Recording(PoolRebuild):
            def rebuild(self, dead_disk):
                results.append(super().rebuild(dead_disk))
                return results[-1]

        monkeypatch.setattr(repro.pipeline, "PoolRebuild", Recording)
        assert main(["rebuild", "--family", "liberation", "--disks", "8",
                     "--placement", "declustered", "--pool-disks", "24",
                     "--stripes", "48", "--element-size", "16",
                     "--chunk-stripes", "16", "--workers", "1",
                     "--algorithm", "c"]) == 0
        assert "MISMATCH" not in capsys.readouterr().out

        def direct(algorithm):
            code = make_code("liberation", 8)
            pm = make_placement("declustered", 24, 48, code.layout.n_disks,
                                seed=0)
            store = PoolStore(code, pm, element_size=16)
            store.encode_random(np.random.default_rng(0))
            return PoolRebuild(store, chunk_stripes=16, algorithm=algorithm,
                               depth=1, workers=1).rebuild(0).reads_per_disk

        c_reads, u_reads = direct("c"), direct("u")
        assert c_reads.tolist() != u_reads.tolist()  # C and U differ here
        assert results[-1].reads_per_disk.tolist() == c_reads.tolist()

    def test_serve_placement_aligns_shard_bounds(self, capsys):
        assert main(["serve", "--family", "rdp", "--disks", "7",
                     "--stripes", "28", "--element-size", "16",
                     "--requests", "60", "--element-read-ms", "0.1",
                     "--placement", "d3", "--shards", "2"]) == 0
        out = capsys.readouterr().out
        assert "shard bounds from d3 placement" in out
        assert "2/2 reported" in out
        assert "byte-exact" in out

    def test_fleet_table(self, capsys):
        assert main(["fleet", "--family", "rdp", "--disks", "5",
                     "--pool-disks", "24", "--stripes", "100",
                     "--trials", "30", "--mttf-hours", "1500",
                     "--capacity-scale", "1e6"]) == 0
        out = capsys.readouterr().out
        assert "p(loss)" in out
        assert "declustered" in out and "flat" in out

    def test_fleet_both_engines_agree(self, capsys):
        assert main(["fleet", "--family", "rdp", "--disks", "5",
                     "--pool-disks", "24", "--stripes", "100",
                     "--trials", "25", "--mttf-hours", "1200",
                     "--capacity-scale", "1e6", "--engine", "both"]) == 0
        captured = capsys.readouterr()
        assert "engines agree" in captured.out
        assert "MISMATCH" not in captured.out


class TestErrorContract:
    """Unknown families / invalid geometry: one-line stderr, exit 2."""

    def _assert_exit_2(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        err = captured.err.strip()
        assert err.startswith("error:"), err
        assert "\n" not in err  # exactly one line
        assert "Traceback" not in captured.err

    def test_scheme_invalid_geometry(self, capsys):
        # xcode needs a prime disk count
        self._assert_exit_2(
            capsys, ["scheme", "--family", "xcode", "--disks", "8"]
        )

    def test_scheme_failed_disk_out_of_range(self, capsys):
        self._assert_exit_2(
            capsys,
            ["scheme", "--family", "rdp", "--disks", "7",
             "--failed-disk", "99"],
        )

    def test_verify_invalid_geometry(self, capsys):
        self._assert_exit_2(
            capsys, ["verify", "--family", "xcode", "--disks", "12"]
        )

    def test_simulate_invalid_geometry(self, capsys):
        self._assert_exit_2(
            capsys, ["simulate", "--family", "xcode", "--disks", "8"]
        )

    def test_recover_failed_disk_out_of_range(self, capsys):
        self._assert_exit_2(
            capsys,
            ["recover", "--family", "evenodd", "--disks", "7",
             "--failed-disk", "-3"],
        )

    def test_degraded_row_out_of_range(self, capsys):
        self._assert_exit_2(
            capsys,
            ["degraded", "--family", "rdp", "--disks", "8", "--rows", "99"],
        )

    def test_trace_invalid_geometry(self, capsys):
        self._assert_exit_2(
            capsys, ["trace", "--family", "xcode", "--disks", "9"]
        )

    def test_unknown_family_rejected_by_parser(self):
        with pytest.raises(SystemExit) as exc:
            main(["scheme", "--family", "nope", "--disks", "8"])
        assert exc.value.code == 2
