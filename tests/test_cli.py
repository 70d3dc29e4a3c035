"""Tests for the granula CLI."""

import pytest

from repro.cli import build_parser, main
from repro.core.archive.serialize import archive_to_json


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_subcommands(self):
        parser = build_parser()
        for argv in (["table1"], ["model", "Giraph"],
                     ["run", "Giraph", "bfs", "dg-tiny"],
                     ["experiments"], ["report", "x.json"],
                     ["validate", "x.json"], ["repair", "x.json"],
                     ["ingest", "x.log", "--salvage"],
                     ["serve", "store-dir"]):
            args = parser.parse_args(argv)
            assert callable(args.func)

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "archives"])
        assert args.store == "archives"
        assert args.host == "127.0.0.1"
        assert args.port == 8737
        assert args.cache_size == 64

    def test_serve_overrides(self):
        args = build_parser().parse_args(
            ["serve", "archives", "--host", "0.0.0.0", "--port", "0",
             "--cache-size", "0"])
        assert (args.host, args.port, args.cache_size) == ("0.0.0.0", 0, 0)


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Giraph" in out and "PowerGraph" in out

    def test_model_tree(self, capsys):
        assert main(["model", "Giraph"]) == 0
        out = capsys.readouterr().out
        assert "GiraphJob" in out
        assert "[domain]" in out

    def test_model_unknown_platform(self, capsys):
        assert main(["model", "Spark"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_models_lists_library(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        for name in ("Giraph", "PowerGraph", "Hadoop", "GraphMat",
                     "PGX.D", "OpenG", "TOTEM"):
            assert name in out

    def test_run_prints_breakdown(self, capsys, tmp_path):
        code = main(["run", "Giraph", "bfs", "dg-tiny",
                     "--workers", "4", "--out", str(tmp_path / "store")])
        assert code == 0
        out = capsys.readouterr().out
        assert "TOTAL" in out
        assert "archive stored" in out
        assert (tmp_path / "store" / "index.json").exists()

    def test_run_unknown_dataset(self, capsys):
        assert main(["run", "Giraph", "bfs", "nope"]) == 2

    def test_run_matrix_prints_headers(self, capsys):
        code = main(["run", "Giraph,PGX.D", "bfs", "dg-tiny",
                     "--workers", "4", "--jobs", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "==== giraph-bfs-dg-tiny-w4 ====" in out
        assert "==== pgx.d-bfs-dg-tiny-w4 ====" in out

    def test_run_matrix_unsupported_platform(self, capsys):
        assert main(["run", "Giraph,Spark", "bfs", "dg-tiny"]) == 2
        assert "unsupported platform" in capsys.readouterr().err

    def test_run_matrix_rejects_empty_item(self, capsys):
        assert main(["run", "Giraph,", "bfs", "dg-tiny"]) == 2
        assert "empty platform" in capsys.readouterr().err

    def test_run_matrix_rejects_fault_plan(self, capsys, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text('{"events": [], "seed": 1}')
        code = main(["run", "Giraph", "bfs,wcc", "dg-tiny",
                     "--faults", str(plan)])
        assert code == 2
        assert "single run" in capsys.readouterr().err

    def test_report_from_archive(self, capsys, tmp_path, giraph_archive):
        path = tmp_path / "a.json"
        path.write_text(archive_to_json(giraph_archive))
        html = tmp_path / "report.html"
        assert main(["report", str(path), "--html", str(html)]) == 0
        assert html.exists()
        out = capsys.readouterr().out
        assert "GiraphJob" in out

    def test_diagnose_archive(self, capsys, tmp_path, giraph_archive):
        path = tmp_path / "a.json"
        path.write_text(archive_to_json(giraph_archive))
        assert main(["diagnose", str(path)]) == 0
        out = capsys.readouterr().out
        assert "choke points" in out

    def test_compare_same_platform_regression(self, capsys, tmp_path,
                                              giraph_archive):
        path = tmp_path / "a.json"
        path.write_text(archive_to_json(giraph_archive))
        # Identical archives: no regression, exit 0.
        assert main(["compare", str(path), str(path)]) == 0
        assert "regression report" in capsys.readouterr().out

    def test_compare_cross_platform(self, capsys, tmp_path,
                                    giraph_archive, powergraph_archive):
        a = tmp_path / "a.json"
        a.write_text(archive_to_json(giraph_archive))
        b = tmp_path / "b.json"
        b.write_text(archive_to_json(powergraph_archive))
        assert main(["compare", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "Ts setup" in out


class TestResilienceCommands:
    def test_validate_clean_archive(self, capsys, tmp_path, giraph_archive):
        path = tmp_path / "a.json"
        path.write_text(archive_to_json(giraph_archive))
        assert main(["validate", str(path)]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_validate_tampered_archive_exits_1(self, capsys, tmp_path,
                                               giraph_archive):
        path = tmp_path / "a.json"
        path.write_text(archive_to_json(giraph_archive).replace(
            '"platform":"Giraph"', '"platform":"Xiraph"'))
        assert main(["validate", str(path)]) == 1
        assert "checksum-mismatch" in capsys.readouterr().out

    def test_validate_binary_garbage_exits_1(self, capsys, tmp_path):
        path = tmp_path / "a.json"
        path.write_bytes(b"\x00\xff\xfe not an archive")
        assert main(["validate", str(path)]) == 1
        assert "not-json" in capsys.readouterr().out

    def test_validate_missing_file(self, capsys):
        assert main(["validate", "/nonexistent/a.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_repair_truncated_archive(self, capsys, tmp_path,
                                      giraph_archive):
        text = archive_to_json(giraph_archive)
        path = tmp_path / "a.json"
        path.write_text(text[: int(len(text) * 0.6)])
        out = tmp_path / "fixed.json"
        assert main(["repair", str(path), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["validate", str(out)]) == 0

    def test_repair_in_place(self, capsys, tmp_path, giraph_archive):
        text = archive_to_json(giraph_archive)
        path = tmp_path / "a.json"
        path.write_text(text[: int(len(text) * 0.7)])
        assert main(["repair", str(path)]) == 0
        capsys.readouterr()
        assert main(["validate", str(path)]) == 0

    def test_repair_unrecoverable_exits_2(self, capsys, tmp_path):
        path = tmp_path / "a.json"
        path.write_text("\x00 hopeless")
        assert main(["repair", str(path)]) == 2
        assert "nothing recoverable" in capsys.readouterr().err

    def test_serve_missing_store_exits_2(self, capsys, tmp_path):
        assert main(["serve", str(tmp_path / "nope")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_ingest_clean_log(self, capsys, tmp_path, giraph_run):
        log = tmp_path / "run.log"
        log.write_text("\n".join(giraph_run.result.log_lines) + "\n")
        store = tmp_path / "store"
        assert main(["ingest", str(log), "--out", str(store)]) == 0
        out = capsys.readouterr().out
        assert "completeness 100%" in out
        assert "archive stored" in out

    def test_ingest_damaged_log_requires_salvage(self, capsys, tmp_path,
                                                 giraph_run):
        lines = giraph_run.result.log_lines
        log = tmp_path / "run.log"
        log.write_text("\n".join(lines[: int(len(lines) * 0.6)]) + "\n")
        assert main(["ingest", str(log)]) == 2
        assert "--salvage" in capsys.readouterr().err
        assert main(["ingest", str(log), "--salvage"]) == 0
        out = capsys.readouterr().out
        assert "salvage ingest" in out
        assert "completeness" in out

    def test_ingest_malformed_line_names_the_parse_error(self, capsys,
                                                         tmp_path, giraph_run):
        lines = list(giraph_run.result.log_lines)
        lines.insert(3, "GRANULA ts=zzz job=x event=end uid=a")
        log = tmp_path / "run.log"
        log.write_text("\n".join(lines) + "\n")
        assert main(["ingest", str(log)]) == 2
        err = capsys.readouterr().err
        assert "cannot parse log line (bad timestamp 'zzz')" in err
        assert "rerun with --salvage" in err
        assert main(["ingest", str(log), "--salvage"]) == 0
        assert "malformed lines      1" in capsys.readouterr().out
