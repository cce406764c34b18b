"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_plan_command(capsys):
    assert main(["plan", "-M", "64", "-N", "4096"]) == 0
    out = capsys.readouterr().out
    assert "k=6" in out
    assert "GTX480" in out
    assert "p-Thomas" in out


def test_plan_c2050_fp32(capsys):
    assert main(["plan", "-M", "8", "-N", "8192", "--device", "c2050", "--fp32"]) == 0
    out = capsys.readouterr().out
    assert "C2050" in out
    assert "fp32" in out


def test_solve_command(capsys):
    assert main(["solve", "-M", "8", "-N", "256"]) == 0
    out = capsys.readouterr().out
    assert "relative residual" in out


@pytest.mark.parametrize("algo", ["thomas", "pcr", "rd", "hybrid"])
def test_solve_algorithms(capsys, algo):
    assert main(["solve", "-M", "4", "-N", "128", "--algorithm", algo]) == 0


def test_solve_fused(capsys):
    assert main(["solve", "-M", "4", "-N", "512", "--fuse"]) == 0


def test_figures_12(capsys):
    assert main(["figures", "--figure", "12", "--panel", "512"]) == 0
    out = capsys.readouterr().out
    assert "| M |" in out
    assert "16384" in out


def test_figures_13_default_panel(capsys):
    assert main(["figures", "--figure", "13"]) == 0
    assert "PCR share" in capsys.readouterr().out


def test_figures_14(capsys):
    assert main(["figures", "--figure", "14"]) == 0
    assert "1x2M" in capsys.readouterr().out


def test_figures_bad_panel(capsys):
    assert main(["figures", "--figure", "12", "--panel", "999"]) == 2


@pytest.mark.parametrize("table", ["1", "2", "3"])
def test_tables(capsys, table):
    assert main(["tables", "--table", table]) == 0
    assert "|" in capsys.readouterr().out


def test_anchors(capsys):
    assert main(["anchors"]) == 0
    out = capsys.readouterr().out
    assert "all anchors within band" in out


def test_report(capsys):
    assert main(["report"]) == 0
    assert "# EXPERIMENTS" in capsys.readouterr().out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_roofline_command(capsys):
    assert main(["roofline"]) == 0
    out = capsys.readouterr().out
    assert "ridge" in out
    assert "p-Thomas (interleaved)" in out


def test_roofline_fp32(capsys):
    assert main(["roofline", "--fp32", "-k", "4"]) == 0
    assert "fp32" in capsys.readouterr().out


def test_accuracy_command(capsys):
    assert main(["accuracy", "--sweep", "dominance"]) == 0
    out = capsys.readouterr().out
    assert "forward error" in out
    assert "hybrid" in out


def test_backends_command(capsys):
    assert main(["backends"]) == 0
    out = capsys.readouterr().out
    for name in ("engine", "distributed", "numpy", "gpusim"):
        assert name in out
    assert "threaded" not in out  # the retired backend stays gone
    assert "simulated" in out
    assert "float32/float64" in out


#: ``--backend`` rows -> CLI flags; the ``threaded`` row runs the CLI
#: on a worker thread (see ``conftest.pytest_pyfunc_call``)
BACKEND_FLAGS = {
    "engine": ["--backend", "engine"],
    "numpy": ["--backend", "numpy"],
    "threaded": ["--backend", "engine"],
    "gpusim": ["--backend", "gpusim"],
}


@pytest.mark.parametrize("row", tuple(BACKEND_FLAGS))
def test_solve_backend_flag(capsys, row):
    argv = ["solve", "-M", "4", "-N", "128", *BACKEND_FLAGS[row]]
    assert main(argv) == 0
    assert "relative residual" in capsys.readouterr().out


def test_solve_trace_flag(capsys):
    assert main(["solve", "-M", "4", "-N", "256", "--trace"]) == 0
    out = capsys.readouterr().out
    assert "backend: engine" in out
    assert "plan cache" in out
    assert "| stage |" in out


def test_solve_trace_shows_gpusim_predictions(capsys):
    assert main([
        "solve", "-M", "4", "-N", "256", "--backend", "gpusim", "--trace",
    ]) == 0
    out = capsys.readouterr().out
    assert "backend: gpusim" in out
    assert "predicted (us)" in out
    assert "device-model prediction" in out


def test_solve_workers_flag(capsys):
    # every solve runs on one thread: --workers is an unknown flag
    with pytest.raises(SystemExit) as exc:
        main(["solve", "-M", "8", "-N", "128", "--workers", "2", "--trace"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


def test_solve_backend_rejected_for_classic_algorithms(capsys):
    rc = main([
        "solve", "-M", "4", "-N", "128",
        "--algorithm", "thomas", "--backend", "engine",
    ])
    assert rc == 2
    assert "hybrid/auto" in capsys.readouterr().err


def test_solve_unknown_backend_errors():
    from repro.backends import BackendError

    with pytest.raises(BackendError, match="unknown backend"):
        main(["solve", "-M", "4", "-N", "128", "--backend", "nope"])


def test_trace_command(capsys):
    assert main(["trace", "-M", "4", "-N", "256"]) == 0
    out = capsys.readouterr().out
    assert "backend: engine" in out
    assert "routing: static -> engine" in out
    assert "| stage |" in out


def test_trace_command_json(capsys):
    import json

    assert main(["trace", "-M", "4", "-N", "256", "--json"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["backend"] == "engine"
    assert info["decision"]["router"] == "static"
    assert info["decision"]["chosen"] == "engine"
    assert "engine" in info["decision"]["candidates"]
    assert info["stages"][0]["name"] == "validate"


def test_trace_command_explicit_backend(capsys):
    import json

    assert main(["trace", "-M", "4", "-N", "128",
                 "--backend", "numpy", "--json"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["backend"] == "numpy"
    assert info["decision"]["router"] == "explicit"
    assert info["decision"]["candidates"] == ["numpy"]


def test_tune_and_router_commands(capsys, tmp_path):
    model = str(tmp_path / "model.json")
    assert main(["tune", "--model", model, "--shapes", "4x64",
                 "--repeats", "2", "--warmup", "0"]) == 0
    out = capsys.readouterr().out
    assert "calibrating M=4 N=64" in out
    assert f"model saved to {model}" in out
    assert "best: backend=" in out

    assert main(["router", "--model", model]) == 0
    out = capsys.readouterr().out
    assert "M2^2|N2^6|float64|plain" in out
    assert "best: backend=" in out

    # adaptive trace consumes the tuned model
    assert main(["trace", "-M", "4", "-N", "64",
                 "--adaptive", model, "--json"]) == 0
    import json

    info = json.loads(capsys.readouterr().out)
    assert info["decision"]["router"] == "adaptive"
    assert info["decision"]["model"] == "hit"

    assert main(["router", "--model", model, "--reset"]) == 0
    assert "removed" in capsys.readouterr().out
    assert main(["router", "--model", model]) == 1
    assert "run `repro tune` first" in capsys.readouterr().err


def test_router_command_corrupt_model(capsys, tmp_path):
    model = tmp_path / "model.json"
    model.write_text("{not json")
    assert main(["router", "--model", str(model)]) == 1
    err = capsys.readouterr().err
    assert "unusable model" in err


def test_tune_bad_shapes():
    with pytest.raises(SystemExit, match="expected MxN"):
        main(["tune", "--shapes", "64", "--model", "ignored.json"])


def test_solve_penta_system(capsys):
    assert main(["solve", "-M", "8", "-N", "64", "--system", "penta"]) == 0
    out = capsys.readouterr().out
    assert "pentadiagonal" in out
    assert "relative residual" in out


def test_solve_block_system(capsys):
    assert main(
        ["solve", "-M", "4", "-N", "32", "--system", "block",
         "--block-size", "3"]
    ) == 0
    out = capsys.readouterr().out
    assert "block-tridiagonal (B=3)" in out


def test_solve_penta_trace_stamps_system(capsys):
    assert main(
        ["solve", "-M", "4", "-N", "32", "--system", "penta", "--trace"]
    ) == 0
    out = capsys.readouterr().out
    assert "[pentadiagonal]" in out


def test_solve_banded_rejects_periodic_prepare_and_algorithms(capsys):
    base = ["solve", "-M", "4", "-N", "32", "--system", "penta"]
    assert main(base + ["--periodic"]) == 2
    assert main(base + ["--prepare", "3"]) == 2
    assert main(base + ["--algorithm", "thomas"]) == 2
    err = capsys.readouterr().err
    assert "penta/block" in err
