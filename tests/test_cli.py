import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crbayes.cli import build_parser, main
from crbayes.data import load_history, store_history, simulate_m0, simulate_mh
from crbayes.data import CaptureHistory
from crbayes.posterior import MhMarginalKernel
from crbayes.propriety import propriety_report


def run(argv):
    return main(argv)


@pytest.fixture
def m0_dataset(tmp_path):
    path = tmp_path / "informative.json"
    store_history(simulate_m0(60, 0.4, 5, seed=11), path)
    return path


@pytest.fixture
def r0_dataset(tmp_path):
    rows = tuple(tuple(1 if j == i % 3 else 0 for j in range(3)) for i in range(6))
    path = tmp_path / "single-captures.json"
    store_history(CaptureHistory(k=3, rows=rows), path)
    return path


class TestSimulate:
    def test_writes_dataset_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "d.json"
        rc = run(["simulate", "--model", "m0", "--n", "100", "--p", "0.3",
                  "--k", "5", "--seed", "7", "--out", str(out)])
        assert rc == 0
        history = load_history(out)
        assert history.k == 5
        manifest = json.loads((tmp_path / "d.json.manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 7
        assert manifest["input_digest"]
        assert "observed histories" in capsys.readouterr().out

    def test_same_flags_give_byte_identical_dataset(self, tmp_path):
        args = ["simulate", "--model", "mh", "--n", "50", "--alpha", "2", "--beta", "3",
                "--k", "4", "--seed", "3"]
        run(args + ["--out", str(tmp_path / "a.json")])
        run(args + ["--out", str(tmp_path / "b.json")])
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_invalid_probability_is_usage_error(self, tmp_path, capsys):
        rc = run(["simulate", "--model", "m0", "--n", "10", "--p", "1.3",
                  "--k", "2", "--seed", "1", "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert "probability" in capsys.readouterr().err

    def test_csv_output(self, tmp_path):
        out = tmp_path / "d.csv"
        rc = run(["simulate", "--model", "m0", "--n", "30", "--p", "0.5",
                  "--k", "3", "--seed", "2", "--out", str(out)])
        assert rc == 0
        assert load_history(out).k == 3


class TestAnalyze:
    def test_m0_proper_analysis(self, m0_dataset, tmp_path, capsys):
        out = tmp_path / "post"
        rc = run(["analyze", "--data", str(m0_dataset), "--model", "m0",
                  "--n-prior", "uniform", "--n-max", "2000", "--out", str(out)])
        assert rc == 0
        payload = json.loads((tmp_path / "post.json").read_text())
        for key in ("support", "mass", "mean", "sd", "ci", "tail_mass_estimate", "warnings"):
            assert key in payload
        assert payload["warnings"] == []
        assert (tmp_path / "post.csv").exists()
        assert (tmp_path / "post.json.manifest.json").exists()
        assert "mean" in capsys.readouterr().out

    def test_m0_no_recaptures_flags_impropriety(self, r0_dataset, tmp_path, capsys):
        rc = run(["analyze", "--data", str(r0_dataset), "--model", "m0",
                  "--n-prior", "uniform", "--n-max", "20000",
                  "--out", str(tmp_path / "bad")])
        assert rc == 3
        assert "improper" in capsys.readouterr().err.lower()

    def test_m0_scale_prior_rescues_no_recaptures(self, r0_dataset, tmp_path):
        rc = run(["analyze", "--data", str(r0_dataset), "--model", "m0",
                  "--n-prior", "scale", "--n-max", "20000",
                  "--out", str(tmp_path / "ok")])
        assert rc == 0

    def test_mh_report_includes_quadrature_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "small.json"
        store_history(CaptureHistory(k=3, rows=((1, 0, 0), (1, 1, 0), (0, 1, 1))), path)
        rc = run(["analyze", "--data", str(path), "--model", "mh",
                  "--shape-a", "2", "--shape-b", "2", "--n-max", "120",
                  "--out", str(tmp_path / "mh")])
        assert rc == 0
        payload = json.loads((tmp_path / "mh.json").read_text())
        assert payload["quadrature"]["max_rel_change"] is not None
        assert payload["quadrature"]["rule"] == "sinh"
        assert list(payload["quadrature"]) == ["rule", "nodes", "check_nodes", "max_rel_change", "centres"]
        assert 1 <= payload["quadrature"]["centres"] <= 118  # the support [3, 120]
        assert "sinh quadrature max relative change" in capsys.readouterr().out

    @pytest.mark.parametrize("shape_a, rc_expected, verdict", [("1.0", 3, "improper"), ("2", 0, "proper")])
    def test_mh_exact_verdict_decides_exit_code(self, tmp_path, capsys, shape_a, rc_expected, verdict):
        # the mh kernel decays exactly like N^-a: a = 1 is improper under the
        # flat prior whatever the tail fit on [3, 120] says
        path = tmp_path / "small.json"
        store_history(CaptureHistory(k=3, rows=((1, 0, 0), (1, 1, 0), (0, 1, 1))), path)
        rc = run(["analyze", "--data", str(path), "--model", "mh",
                  "--shape-a", shape_a, "--n-max", "120", "--out", str(tmp_path / "mh")])
        assert rc == rc_expected
        payload = json.loads((tmp_path / "mh.json").read_text())
        assert list(payload)[-1] == "verdict"
        assert payload["verdict"] == verdict
        improper_warning = ("posterior improper: the mh kernel decays exactly like N^-1, so prior "
                            "times kernel does not decay faster than 1/N under the uniform prior")
        assert payload["warnings"] == ([improper_warning] if verdict == "improper" else [])
        assert (f"WARNING: {improper_warning}" in capsys.readouterr().err) == (verdict == "improper")

    def test_mh_unconverged_quadrature_is_numeric_failure(self, tmp_path, capsys):
        path = tmp_path / "small.json"
        store_history(CaptureHistory(k=3, rows=((1, 0, 0), (1, 1, 0), (0, 1, 1))), path)
        rc = run(["analyze", "--data", str(path), "--model", "mh",
                  "--n-max", "200", "--nodes", "8", "--check-nodes", "12",
                  "--quad-rtol", "1e-10", "--out", str(tmp_path / "mh")])
        assert rc == 5
        assert "quadrature" in capsys.readouterr().err

    def test_mh_failed_mode_search_is_numeric_failure_with_its_own_advice(self, tmp_path, capsys, monkeypatch):
        # a mode search that ends without a usable centre at one N: exit 5,
        # and the error names the mode search, not the node counts
        real = MhMarginalKernel._mode_centre

        def no_mode_at_9(self, grid):
            centre = real(self, grid)
            centre[:, grid == 9.0] = float("nan")
            return centre

        monkeypatch.setattr(MhMarginalKernel, "_mode_centre", no_mode_at_9)
        path = tmp_path / "small.json"
        store_history(CaptureHistory(k=3, rows=((1, 0, 0), (1, 1, 0), (0, 1, 1))), path)
        rc = run(["analyze", "--data", str(path), "--model", "mh", "--n-max", "40", "--out", str(tmp_path / "mh")])
        assert rc == 5
        err = capsys.readouterr().err
        assert "(first at N = 9)" in err and "the mode search failed at N = 9" in err
        assert "raise nodes" not in err

    def test_mh_data_rich_table_passes_a_tight_rtol(self, tmp_path):
        # 40 animals on 8 occasions over the default support [40, 1e4]: the
        # node sets share centres mid-run, and the 64/96 check still sees
        # quadrature error only (6.5e-11; the 96-node values stay within
        # 2e-13 of the table's with a centre on each block's first point)
        path = tmp_path / "rich.json"
        store_history(simulate_mh(50, 2.0, 4.0, 8, seed=6), path)
        rc = run(["analyze", "--data", str(path), "--model", "mh", "--quad-rtol", "1e-8",
                  "--out", str(tmp_path / "mh")])
        assert rc == 0
        quadrature = json.loads((tmp_path / "mh.json").read_text())["quadrature"]
        assert quadrature["max_rel_change"] <= 1e-10
        assert quadrature["centres"] < 40

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        rc = run(["analyze", "--data", str(tmp_path / "nope.json"), "--model", "m0",
                  "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_directory_as_data_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "d.json").mkdir()
        rc = run(["analyze", "--data", str(tmp_path / "d.json"), "--model", "m0",
                  "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.json"]


class TestCheckPropriety:
    def test_three_scenarios_match_theory(self, m0_dataset, r0_dataset, tmp_path):
        rc = run(["check-propriety", "--model", "m0", "--data", str(m0_dataset),
                  "--a", "1", "--b", "1", "--out", str(tmp_path / "p1")])
        assert rc == 0
        assert json.loads((tmp_path / "p1.json").read_text())["predicted"] == "proper"

        rc = run(["check-propriety", "--model", "m0", "--data", str(r0_dataset),
                  "--a", "1", "--b", "1", "--out", str(tmp_path / "p2")])
        assert rc == 0  # improper, and the fit agrees with the prediction
        report = json.loads((tmp_path / "p2.json").read_text())
        assert report["predicted"] == "improper"
        assert report["agreement"] is True

        rc = run(["check-propriety", "--model", "ym", "--n", "4", "--k", "6",
                  "--delta", "0.2", "--out", str(tmp_path / "p3")])
        assert rc == 0
        report = json.loads((tmp_path / "p3.json").read_text())
        assert report["predicted"] == "improper"  # boundary case of the iff condition

    def test_synthetic_power_law_mode(self, tmp_path, capsys):
        # the sanity mode is the synthetic model's report under the flat prior, whatever --n-prior says
        rc = run(["check-propriety", "--synthetic-exponent", "2", "--n-prior", "scale",
                  "--out", str(tmp_path / "syn")])
        assert rc == 0
        payload = json.loads((tmp_path / "syn.json").read_text())
        report = propriety_report("synthetic", "uniform", synthetic_exponent=2.0)
        assert payload == {"model": "synthetic", "requested_exponent": 2.0, "fitted_exponent": report.fitted_exponent,
                           "fitted_std_err": report.fitted_std_err, "agreement": True}
        assert abs(payload["fitted_exponent"] - 2.0) < 1e-8
        assert (tmp_path / "syn.csv").exists()
        assert capsys.readouterr().out == f"synthetic kernel N^-2.0: fitted exponent 2.0000 +- {report.fitted_std_err:.2e}\n"

    def test_synthetic_mode_overflowing_fit_is_numeric_failure(self, tmp_path, capsys):
        # the log kernel -1e307 log N is finite, its fit is not: exit 5, no report
        rc = run(["check-propriety", "--synthetic-exponent", "1e307", "--out", str(tmp_path / "syn")])
        assert rc == 5
        assert capsys.readouterr().err == "numeric failure: tail fit not finite (slope nan, standard error nan)\n"
        assert list(tmp_path.iterdir()) == []

    def test_mh_sufficiency_gap_reported(self, tmp_path):
        path = tmp_path / "small.json"
        store_history(CaptureHistory(k=3, rows=((1, 0, 0), (1, 1, 0))), path)
        rc = run(["check-propriety", "--model", "mh", "--data", str(path),
                  "--shape-a", "0.5", "--shape-b", "1", "--fit-points", "20",
                  "--out", str(tmp_path / "mh")])
        assert rc == 0  # the kernel decays exactly like N^-0.5, and the fit agrees
        assert json.loads((tmp_path / "mh.json").read_text())["predicted"] == "improper"

    def test_disagreement_exit_code(self, m0_dataset, tmp_path):
        rc = run(["check-propriety", "--model", "m0", "--data", str(m0_dataset),
                  "--tolerance", "1e-12", "--out", str(tmp_path / "dis")])
        assert rc == 4


USAGE_ERRORS = {  # argv, with --out where it matters, and the one line written to stderr
    "simulate-m0-without-p": (
        ["simulate", "--model", "m0", "--n", "10", "--k", "2", "--seed", "1"],
        "simulate --model m0 needs --p",
    ),
    "simulate-mh-without-shapes": (
        ["simulate", "--model", "mh", "--n", "10", "--k", "2", "--seed", "1"],
        "simulate --model mh needs --alpha and --beta",
    ),
    "simulate-empty-csv": (
        ["simulate", "--model", "m0", "--n", "5", "--p", "0", "--k", "3", "--seed", "1", "--out", "{tmp}/x.csv"],
        "cannot store a history with no rows as CSV: its occasion count K = 3 would be lost; "
        "use JSON, which keeps K",
    ),
    "check-propriety-without-model": (
        ["check-propriety"],
        "check-propriety needs --model or --synthetic-exponent",
    ),
    "check-propriety-m0-without-data": (
        ["check-propriety", "--model", "m0"],
        "check-propriety --model m0 needs --data",
    ),
    "check-propriety-ym-without-counts": (
        ["check-propriety", "--model", "ym", "--n", "4"],
        "check-propriety --model ym needs --n, --k and --delta",
    ),
    "da-sweep-bad-m-list": (
        ["da-sweep", "--data", "{data}", "--m", "10,x"],
        "bad --m list: invalid literal for int() with base 10: 'x'",
    ),
    "da-sweep-empty-m-list": (
        ["da-sweep", "--data", "{data}", "--m", ","],
        "need at least two distinct augmented sizes to sweep",
    ),
    "da-sweep-one-draw": (
        ["da-sweep", "--data", "{data}", "--m", "200,400", "--iters", "101", "--burnin", "100"],
        "iters 101, burnin 100 and thin 1 keep 1 draw(s); a chain's sd needs at least 2",
    ),
    "da-sweep-negative-seed": (
        ["da-sweep", "--data", "{data}", "--m", "200,400", "--seed", "-1"],
        "seed must be a nonnegative integer, got -1",
    ),
    "da-sweep-thinned-to-one-draw": (
        ["da-sweep", "--data", "{data}", "--m", "200,400", "--iters", "2000", "--burnin", "200",
         "--thin", "1800"],
        "iters 2000, burnin 200 and thin 1800 keep 1 draw(s); a chain's sd needs at least 2",
    ),
    "check-propriety-fit-below-support": (
        ["check-propriety", "--model", "m0", "--data", "{data}", "--fit-lo", "10", "--fit-hi", "1000"],
        "fit range starts at N = 10, below the kernel's support start 57",
    ),
    "simulate-unknown-suffix": (
        ["simulate", "--model", "m0", "--n", "5", "--p", "0.5", "--k", "3", "--seed", "1", "--out", "{tmp}/x.txt"],
        "cannot tell the dataset format of x.txt: name it .json or .csv",
    ),
    "analyze-mh-check-nodes-above-cap": (
        ["analyze", "--data", "{data}", "--model", "mh", "--check-nodes", "364"],
        "at most 363 quadrature nodes per axis, got 364",
    ),
}


@pytest.mark.parametrize("case", list(USAGE_ERRORS))
def test_missing_model_parameters_is_usage_error(case, m0_dataset, tmp_path, capsys):
    argv, message = USAGE_ERRORS[case]
    argv = [a.format(data=m0_dataset, tmp=tmp_path) for a in argv]
    if "--out" not in argv:
        argv += ["--out", str(tmp_path / "x.json")]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not any(tmp_path.glob("x*"))


NON_FINITE_FLAGS = {  # argv without the flag and --out
    "--improper-margin": ["analyze", "--data", "{data}", "--model", "m0"],
    "--quad-rtol": ["analyze", "--data", "{data}", "--model", "mh"],
    "--tolerance": ["check-propriety", "--model", "m0", "--data", "{data}"],
    "--shape-a": ["analyze", "--data", "{data}", "--model", "mh"],
    "--delta": ["ym", "--n", "4", "--k", "6"],
}


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("flag", list(NON_FINITE_FLAGS))
def test_non_finite_numeric_flag_is_usage_error(flag, value, tmp_path, capsys):
    # an improper posterior: the default margin exits 3, and a NaN margin used to hide that
    data = tmp_path / "improper.json"
    store_history(simulate_m0(400, 0.01, 5, seed=3), data)
    argv = [a.format(data=data) for a in NON_FINITE_FLAGS[flag]]
    assert run(argv + [flag, value, "--out", str(tmp_path / "x")]) == 2
    assert f"{value} is not a finite positive number" in capsys.readouterr().err
    assert not any(tmp_path.glob("x*"))


SHARED_FLAGS = [  # (flag, dest, default, a non-default value)
    ("--n-prior", "n_prior", "uniform", "scale"),
    ("--a", "a", 1.0, 1.5),
    ("--b", "b", 1.0, 2.5),
    ("--shape-a", "shape_a", 2.0, 0.7),
    ("--shape-b", "shape_b", 2.0, 3.0),
    ("--scale-c", "scale_c", 1.0, 0.5),
    ("--nodes", "nodes", 64, 32),
    ("--check-nodes", "check_nodes", 96, 48),
    ("--quad-rtol", "quad_rtol", 1e-4, 1e-6),
]


@pytest.mark.parametrize("explicit", [False, True], ids=["defaults", "explicit"])
def test_analyze_and_check_propriety_share_prior_and_quadrature_flags(explicit):
    argv = [tok for flag, _, _, value in SHARED_FLAGS for tok in (flag, str(value))] if explicit else []
    parser = build_parser()
    ana = vars(parser.parse_args(["analyze", "--data", "d", "--model", "mh", "--out", "o", *argv]))
    chk = vars(parser.parse_args(["check-propriety", "--out", "o", *argv]))
    want = [value if explicit else default for _, _, default, value in SHARED_FLAGS]
    assert [ana[dest] for _, dest, _, _ in SHARED_FLAGS] == want
    assert [chk[dest] for _, dest, _, _ in SHARED_FLAGS] == want


def test_manifest_params_keys(m0_dataset, tmp_path):
    sim_argv = ["simulate", "--model", "m0", "--n", "30", "--p", "0.4", "--k", "3", "--seed", "2",
                "--out", str(tmp_path / "s.json")]
    run(sim_argv)
    sim = json.loads((tmp_path / "s.json.manifest.json").read_text())["params"]
    assert sorted(sim) == sorted(set(vars(build_parser().parse_args(sim_argv))) - {"command"})
    run(["analyze", "--data", str(m0_dataset), "--model", "m0", "--out", str(tmp_path / "a")])
    run(["check-propriety", "--model", "m0", "--data", str(m0_dataset), "--out", str(tmp_path / "c")])
    ana = json.loads((tmp_path / "a.json.manifest.json").read_text())["params"]
    chk = json.loads((tmp_path / "c.json.manifest.json").read_text())["params"]
    shared = ["a", "b", "check_nodes", "data", "model", "n_prior", "nodes", "out",
              "quad_rtol", "scale_c", "shape_a", "shape_b"]
    assert sorted(ana) == sorted(shared + ["improper_margin", "level", "n_max"])
    assert sorted(chk) == sorted(shared + ["delta", "fit_hi", "fit_lo", "fit_points", "k", "n",
                                           "synthetic_exponent", "tolerance"])


# the files under the --out prefix that each command writes, named as the
# dataset: analyze and da-sweep write .json, .csv and the manifest, and
# check-propriety on a model writes no .csv
OUT_ON_DATA = [
    (["analyze", "--model", "m0"], "d.json"),
    (["analyze", "--model", "m0"], "d.csv"),
    (["analyze", "--model", "m0"], "d.json.manifest.json"),
    (["da-sweep", "--m", "100,200", "--iters", "400", "--burnin", "40"], "d.json"),
    (["da-sweep", "--m", "100,200", "--iters", "400", "--burnin", "40"], "d.csv"),
    (["check-propriety", "--model", "m0"], "d.json"),
    (["check-propriety", "--model", "m0"], "d.json.manifest.json"),
    (["check-propriety", "--synthetic-exponent", "2"], "d.csv"),
]


@pytest.mark.parametrize("argv, name", OUT_ON_DATA)
def test_out_prefix_that_would_overwrite_the_dataset_is_refused(argv, name, tmp_path, monkeypatch, capsys):
    data = tmp_path / name
    store_history(simulate_m0(100, 0.3, 5, seed=7), data)
    before = data.read_bytes()
    monkeypatch.chdir(tmp_path)  # a relative --out against an absolute --data: paths compare resolved
    rc = run([*argv, "--data", str(data), "--out", "d"])
    assert rc == 2
    assert data.read_bytes() == before
    assert f"would overwrite the dataset {data} with d{name[1:]}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == [name]  # nothing written


# every command that takes --out and --data, with flags that keep it quick
OUT_AND_DATA_COMMANDS = {
    "analyze": ["analyze", "--model", "m0", "--n-max", "2000"],
    "da-sweep": ["da-sweep", "--m", "100,200", "--iters", "400", "--burnin", "40"],
    "check-propriety": ["check-propriety", "--model", "m0"],
    "check-propriety-synthetic": ["check-propriety", "--synthetic-exponent", "2"],
}


@pytest.mark.parametrize("command", list(OUT_AND_DATA_COMMANDS))
def test_every_file_a_command_writes_is_refused_on_data(command, tmp_path, capsys):
    # run the command, then name a dataset after each file it wrote: a report
    # file that the refusal does not know of would overwrite that dataset
    argv = OUT_AND_DATA_COMMANDS[command]
    history = simulate_m0(100, 0.3, 5, seed=7)
    store_history(history, tmp_path / "data.json")
    (tmp_path / "run").mkdir()
    assert run([*argv, "--data", str(tmp_path / "data.json"), "--out", str(tmp_path / "run" / "r")]) == 0
    suffixes = sorted(p.name[1:] for p in (tmp_path / "run").iterdir())
    assert ".json" in suffixes and ".json.manifest.json" in suffixes
    for i, suffix in enumerate(suffixes):
        folder = tmp_path / f"refused{i}"
        folder.mkdir()
        data = folder / f"d{suffix}"
        store_history(history, data)
        before = data.read_bytes()
        capsys.readouterr()
        assert run([*argv, "--data", str(data), "--out", str(folder / "d")]) == 2, suffix
        assert data.read_bytes() == before
        assert f"would overwrite the dataset {data}" in capsys.readouterr().err
        assert [p.name for p in folder.iterdir()] == [data.name]  # nothing written


def test_out_prefix_with_the_dataset_stem_elsewhere_or_unwritten_suffix_runs(tmp_path):
    data = tmp_path / "in" / "d.json"
    data.parent.mkdir()
    store_history(simulate_m0(100, 0.3, 5, seed=7), data)
    before = data.read_bytes()
    (tmp_path / "out").mkdir()
    assert run(["analyze", "--data", str(data), "--model", "m0", "--n-max", "2000",
                "--out", str(tmp_path / "out" / "d")]) == 0
    assert data.read_bytes() == before
    assert (tmp_path / "out" / "d.json").exists() and (tmp_path / "out" / "d.csv").exists()
    # check-propriety on a model writes no .csv, so a CSV dataset under its prefix is left alone
    csv_data = tmp_path / "in" / "c.csv"
    store_history(simulate_m0(100, 0.3, 5, seed=7), csv_data)
    before = csv_data.read_bytes()
    assert run(["check-propriety", "--model", "m0", "--data", str(csv_data),
                "--out", str(tmp_path / "in" / "c")]) == 0
    assert csv_data.read_bytes() == before


class TestDaSweep:
    def test_sweep_outputs(self, m0_dataset, tmp_path, capsys):
        rc = run(["da-sweep", "--data", str(m0_dataset), "--m", "150,300",
                  "--iters", "4000", "--burnin", "400", "--seed", "5",
                  "--out", str(tmp_path / "sweep")])
        assert rc == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "M,mean_N,sd_N,ess"
        assert len(lines) == 3
        payload = json.loads((tmp_path / "sweep.json").read_text())
        assert "slope" in payload and "stable" in payload
        assert "slope of mean vs M" in capsys.readouterr().out

    def test_first_size_at_observed_count(self, tmp_path, capsys):
        data = tmp_path / "d.json"
        store_history(simulate_m0(100, 0.3, 5, seed=7), data)  # 82 observed animals
        rc = run(["da-sweep", "--data", str(data), "--m", "82,282",
                  "--iters", "2000", "--burnin", "200", "--out", str(tmp_path / "s")])
        assert rc == 0
        assert json.loads((tmp_path / "s.json").read_text())["sd_ratio"] == float("inf")
        assert "sd ratio last/first = inf" in capsys.readouterr().out

    def test_first_size_repeated_at_end_is_usage_error(self, tmp_path, capsys):
        data = tmp_path / "d.json"
        store_history(simulate_m0(100, 0.3, 5, seed=7), data)  # 82 observed animals
        rc = run(["da-sweep", "--data", str(data), "--m", "82,282,82",
                  "--iters", "500", "--burnin", "50", "--out", str(tmp_path / "s")])
        assert rc == 2
        assert "first and last" in capsys.readouterr().err
        assert not any(tmp_path.glob("s.*"))

    def test_repeated_m_is_usage_error(self, m0_dataset, tmp_path, capsys):
        rc = run(["da-sweep", "--data", str(m0_dataset), "--m", "200,200",
                  "--iters", "400", "--burnin", "40", "--out", str(tmp_path / "s")])
        assert rc == 2
        assert "distinct" in capsys.readouterr().err


class TestYm:
    def test_proper_configuration(self, tmp_path, capsys):
        rc = run(["ym", "--n", "4", "--k", "6", "--delta", "0.25",
                  "--prior", "uniform", "--n-max", "50000",
                  "--out", str(tmp_path / "ym1")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "proper" in out
        payload = json.loads((tmp_path / "ym1.json").read_text())
        assert payload["verdict"] == "proper"
        assert abs(payload["propriety"]["fitted_exponent"] - 1.25) < 0.02

    def test_boundary_is_improper(self, tmp_path):
        rc = run(["ym", "--n", "4", "--k", "6", "--delta", "0.2",
                  "--prior", "uniform", "--n-max", "50000",
                  "--out", str(tmp_path / "ym2")])
        assert rc == 3
        assert json.loads((tmp_path / "ym2.json").read_text())["verdict"] == "improper"

    def test_scale_prior_always_proper(self, tmp_path):
        rc = run(["ym", "--n", "4", "--k", "6", "--delta", "0.05",
                  "--prior", "scale", "--n-max", "50000",
                  "--out", str(tmp_path / "ym3")])
        assert rc == 0
        assert json.loads((tmp_path / "ym3.json").read_text())["verdict"] == "proper"

    def test_improper_verdict_warns_with_the_exact_exponent(self, tmp_path, capsys):
        # (k - 1) delta = 0.8, but the last decade of [300, 3000] is pre-asymptotic
        # and its fit (about 1.3) raises no warning of its own
        rc = run(["ym", "--n", "300", "--k", "5", "--delta", "0.2", "--n-max", "3000",
                  "--out", str(tmp_path / "ymi")])
        assert rc == 3
        improper_warning = ("posterior improper: the ym kernel decays exactly like N^-0.8, so prior "
                            "times kernel does not decay faster than 1/N under the uniform prior")
        payload = json.loads((tmp_path / "ymi.json").read_text())
        assert payload["verdict"] == "improper"
        assert payload["warnings"] == [improper_warning]
        assert capsys.readouterr().err == f"  WARNING: {improper_warning}\n"


def test_version_flag(capsys):
    assert run(["--version"]) == 0
    assert "crbayes" in capsys.readouterr().out


def test_version_flag_and_manifest_report_the_package_version(tmp_path, capsys):
    import crbayes

    assert run(["--version"]) == 0
    assert capsys.readouterr().out.split() == ["crbayes", crbayes.__version__]
    out = tmp_path / "d.json"
    run(["simulate", "--model", "m0", "--n", "20", "--p", "0.5", "--k", "3",
         "--seed", "1", "--out", str(out)])
    manifest = json.loads((tmp_path / "d.json.manifest.json").read_text())
    assert manifest["version"] == crbayes.__version__


def _verdicts(analyze_argv, check_argv):
    """The "verdict" of an analyze or ym run next to check-propriety's "predicted"."""
    with tempfile.TemporaryDirectory() as tmp:
        run(analyze_argv + ["--out", f"{tmp}/a"])
        run(check_argv + ["--out", f"{tmp}/c"])
        return (json.loads(Path(f"{tmp}/a.json").read_text())["verdict"],
                json.loads(Path(f"{tmp}/c.json").read_text())["predicted"])


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=2, max_value=5).flatmap(
        lambda k: st.lists(st.integers(1, 2**k - 1), min_size=1, max_size=6).map(
            lambda codes: CaptureHistory(k=k, rows=tuple(tuple((c >> j) & 1 for j in range(k)) for c in codes))
        )
    ),
    st.floats(min_value=0.1, max_value=3.0),
    st.floats(min_value=0.1, max_value=3.0),
    st.sampled_from(["uniform", "scale"]),
)
def test_analyze_verdict_matches_check_propriety_on_m0(history, a, b, n_prior):
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "d.json"
        store_history(history, data)
        flags = ["--data", str(data), "--model", "m0", "--a", repr(a), "--b", repr(b), "--n-prior", n_prior]
        verdict, predicted = _verdicts(["analyze", *flags, "--n-max", "200"], ["check-propriety", *flags])
    assert verdict == predicted


@pytest.mark.parametrize("shape_a", ["0.7", "1.5"])
@pytest.mark.parametrize("n_prior", ["uniform", "scale"])
def test_analyze_verdict_matches_check_propriety_on_mh(shape_a, n_prior, tmp_path):
    data = tmp_path / "small.json"
    store_history(CaptureHistory(k=3, rows=((1, 0, 0), (1, 1, 0), (0, 1, 1))), data)
    flags = ["--data", str(data), "--model", "mh", "--shape-a", shape_a, "--n-prior", n_prior]
    verdict, predicted = _verdicts(["analyze", *flags, "--n-max", "60"], ["check-propriety", *flags])
    assert verdict == predicted


@pytest.mark.parametrize("delta, expected", [("0.3", "proper"), ("0.2", "improper")])  # 1/(k - 1) = 0.25
def test_ym_verdict_matches_check_propriety(delta, expected):
    cells = ["--n", "20", "--k", "5", "--delta", delta]
    verdict, predicted = _verdicts(["ym", *cells, "--n-max", "2000"], ["check-propriety", "--model", "ym", *cells])
    assert verdict == predicted == expected
