"""CLI tests beyond the basics covered in test_integration."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main


class TestVersion:
    def test_version_flag_prints_and_exits(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert repro.__version__ in out
        assert out == f"repro {repro.__version__}\n"


#: Packages no served job runs: the figure drivers and studies, the
#: compiler stages, the bench harness and the shadow verifiers.
NOT_SERVED = (
    "repro.experiments",
    "repro.compiler",
    "repro.bench",
    "repro.sim.verify",
)


class TestImportBoundary:
    def test_serve_loads_no_figure_driver_study_or_verifier(self):
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        script = (
            "import sys\n"
            "from repro.cli import _build_parser\n"
            "assert _build_parser().parse_args(['serve']).command == 'serve'\n"
            "import repro.service.server\n"
            "print('\\n'.join(sorted(sys.modules)))\n"
        )
        loaded = subprocess.run(
            [sys.executable, "-c", script], env=env, check=True,
            capture_output=True, text=True,
        ).stdout.split()
        assert "repro.service.server" in loaded
        assert [m for m in loaded if m.startswith(NOT_SERVED)] == []

    def test_figures_map_each_subcommand_to_its_driver_in_all_order(
            self, monkeypatch, capsys):
        import repro.cli as cli_module
        from repro import experiments
        from repro.workloads import get_workload

        figures = cli_module._FIGURES
        assert tuple(figures) == cli_module._FIGURE_NAMES
        assert cli_module._FIGURES is figures  # built once
        for run, fmt in figures.values():
            # The e2e benchmark looks each driver up by name.
            assert run.__name__.startswith("run_")
            assert fmt.__name__.startswith("format_")
            assert getattr(experiments, run.__name__) is run
            assert getattr(experiments, fmt.__name__) is fmt

        ran = []
        for name in figures:
            monkeypatch.setitem(figures, name, (
                lambda data, name=name: ran.append(name) or name,
                lambda name: f"<{name}>",
            ))
        monkeypatch.setattr(cli_module, "all_workloads", lambda scale=1.0: [
            get_workload("vectoradd", scale)
        ])
        assert main(["all", "--scale", "0.25"]) == 0
        assert ran == list(cli_module._FIGURE_NAMES)
        out = capsys.readouterr().out
        assert out.split() == [f"<{name}>" for name in ran]


class TestAllocateCommand:
    KERNEL = (
        ".kernel tiny\n"
        ".livein R0 R1\n"
        "entry:\n"
        "    iadd R2, R0, R1\n"
        "    stg [R0], R2\n"
        "    exit\n"
    )

    def test_allocate_valid_file(self, tmp_path, capsys):
        path = tmp_path / "tiny.asm"
        path.write_text(self.KERNEL)
        assert main(["allocate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "tiny" in out
        assert "strands" in out

    def test_allocate_parse_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.asm"
        path.write_text("this is not assembly\n")
        assert main(["allocate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: parse error:")
        assert "Traceback" not in err

    def test_allocate_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["allocate", str(tmp_path / "absent.asm")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")


class TestUnrollCommand:
    def test_unroll_vectoradd(self, capsys):
        assert main(
            ["unroll", "--benchmarks", "vectoradd", "--factor", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "unroll2+hoist" in out
        assert "vectoradd" in out


class TestExportCommand:
    def test_export_writes_csvs(self, tmp_path, capsys):
        # Full-suite export is expensive; patch the workload list down.
        import repro.cli as cli_module
        from repro.workloads import get_workload

        original = cli_module.all_workloads
        cli_module.all_workloads = lambda scale=1.0: [
            get_workload("vectoradd", scale),
            get_workload("histogram", scale),
        ]
        try:
            assert main(
                ["export", str(tmp_path), "--skip-slow"]
            ) == 0
        finally:
            cli_module.all_workloads = original
        assert (tmp_path / "fig13.csv").exists()
        assert (tmp_path / "fig2.csv").exists()
        out = capsys.readouterr().out
        assert "fig13.csv" in out


class TestShowOptions:
    def test_show_two_level(self, capsys):
        assert main(
            ["show", "vectoradd", "--no-lrf", "--orf-entries", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "LRF" not in out.split("strands")[0].split(";")[0] or True
        assert "lrf_values': 0" in out

    def test_show_lrf_default(self, capsys):
        assert main(["show", "hotspot"]) == 0
        out = capsys.readouterr().out
        assert "LRF[" in out


class TestFigureCommands:
    def test_fig2_small_scale(self, capsys):
        import repro.cli as cli_module
        from repro.workloads import get_workload

        original = cli_module.all_workloads
        cli_module.all_workloads = lambda scale=1.0: [
            get_workload("vectoradd", scale)
        ]
        try:
            assert main(["fig2"]) == 0
        finally:
            cli_module.all_workloads = original
        out = capsys.readouterr().out
        assert "Figure 2(a)" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestServeCommand:
    @pytest.mark.parametrize("flag", ["--jobs", "--max-pending"])
    def test_pool_size_below_one_exits_2(self, flag, capsys):
        assert main(["serve", "--port", "0", flag, "0"]) == 2
        err = capsys.readouterr().err
        assert err == f"repro: error: {flag} must be at least 1, got 0\n"

    def test_serve_has_no_linger_flag(self, capsys):
        # An admitted job starts at once; there is no batch window.
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--port", "0", "--linger-ms", "5"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines()
                  if "error:" in line]
        assert errors == [
            "repro: error: unrecognized arguments: --linger-ms 5"
        ]


class TestEngineFlags:
    def test_tune_has_no_jobs_flag(self, tmp_path, capsys):
        # A tune runs one search in-process; nothing would read --jobs.
        out = tmp_path / "tune.json"
        with pytest.raises(SystemExit) as excinfo:
            main(["tune", "fuzz:5", "--out", str(out), "--jobs", "2"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines()
                  if "error:" in line]
        assert errors == [
            "repro: error: unrecognized arguments: --jobs 2"
        ]
        assert not out.exists()


class TestNumericOptionRanges:
    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["fig15"],
            ["all"],
            ["export", "{tmp}"],
            ["report", "{tmp}/REPORT.md"],
            ["scheduler"],
            ["timing"],
            ["trace", "--trace-out", "{tmp}/trace.json"],
            ["tune", "fuzz:5", "--out", "{tmp}/tune.json"],
            ["bench-accounting", "--out", "{tmp}/bench.json"],
        ],
    )
    def test_scale_must_be_positive_and_finite(
        self, argv, value, tmp_path, capsys
    ):
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        assert main(argv + ["--scale", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "repro: error: --scale must be positive and finite, "
            f"got {float(value)}\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["tune", "fuzz:5", "--warps", "0"],
            ["tune", "fuzz:5", "--warps", "-3"],
            ["scheduler", "--warps", "0"],
            ["timing", "--warps", "-1"],
        ],
    )
    def test_warps_below_one_exits_2(self, argv, tmp_path, capsys):
        out = tmp_path / "tune.json"
        assert main(argv + (["--out", str(out)] if argv[0] == "tune"
                            else [])) == 2
        value = argv[argv.index("--warps") + 1]
        assert capsys.readouterr().err == (
            f"repro: error: --warps must be at least 1, got {value}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("value", ["-1", "0", "nan"])
    def test_time_budget_must_be_positive(self, value, tmp_path, capsys):
        out = tmp_path / "tune.json"
        argv = ["tune", "fuzz:5", "--time-budget-s", value, "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "repro: error: --time-budget-s must be positive, "
            f"got {float(value)}\n"
        )
        assert not out.exists()


class TestTargetErrors:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["trace", "{tmp}/absent.asm"],
                "repro: error: [Errno 2] No such file or directory: "
                "'{tmp}/absent.asm'",
            ),
            (
                ["trace", "fuzz:x", "--trace-jsonl", "{tmp}/t.jsonl",
                 "--profile-out", "{tmp}/p.txt"],
                "repro: error: bad fuzz target 'fuzz:x' "
                "(expected fuzz:SEED)",
            ),
            (
                ["tune", "fuzz:x", "--trace-out", "{tmp}/t.json",
                 "--out", "{tmp}/tune.json"],
                "repro: error: bad fuzz target 'fuzz:x' "
                "(expected fuzz:SEED)",
            ),
        ],
        ids=["trace-missing-file", "trace-jsonl-profile", "tune"],
    )
    def test_unresolved_target_writes_nothing(
        self, argv, message, tmp_path, monkeypatch, capsys
    ):
        """A command whose target does not resolve fails before any
        work, so it writes no trace (``repro trace`` defaults to
        ``trace.json`` in the working directory), profile or output."""
        monkeypatch.chdir(tmp_path)
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message.format(tmp=tmp_path) + "\n"
        assert "wrote" not in captured.err
        assert list(tmp_path.iterdir()) == []
