"""The package's public surface: what it exports, and the README example that uses it."""

import re
from pathlib import Path

import crbayes

ROOT = Path(__file__).resolve().parent.parent

PUBLIC = {
    "BetaParams", "CaptureHistory", "DaChains", "DaConfig", "FitConfig", "GammaPriors",
    "InvalidHistoryError", "MhMarginalKernel", "PosteriorTable", "ProprietyReport",
    "QuadratureConvergenceError", "SufficientStats", "SweepReport", "TailFitError",
    "da_gibbs", "effective_sample_size", "fit_tail_exponent", "kahn_log_prob", "load_history",
    "local_exponent", "m0_marginal_log_kernel", "m0_propriety_condition", "m_sweep",
    "mh_propriety_condition", "posterior_table", "propriety_report", "simulate_m0",
    "simulate_mh", "store_history", "summarize", "ym_propriety_condition",
    "york_madigan_log_kernel",
}

# kahn_log_prob is Kahn's count likelihood, which Link (2013) builds on; the
# ROADMAP's item 5 gives it a command that compares its tail with m0's
NO_CALLER_YET = {"kahn_log_prob"}


def test_public_names_are_pinned():
    assert len(crbayes.__all__) == len(set(crbayes.__all__)) == 32
    assert set(crbayes.__all__) == PUBLIC


def test_every_public_name_has_a_caller():
    # a caller is any mention besides the definition in the package's modules,
    # or any mention in the benchmark's workloads; tests and docs do not count
    sources = [p.read_text() for p in sorted((ROOT / "src" / "crbayes").glob("*.py")) if p.name != "__init__.py"]
    workloads = (ROOT / "perfbench" / "workloads.py").read_text()
    uncalled = set()
    for name in crbayes.__all__:
        word = re.compile(rf"\b{name}\b")
        definition = re.compile(rf"^\s*(?:def|class) {name}\b", re.M)
        uses = sum(len(word.findall(t)) - len(definition.findall(t)) for t in sources)
        if uses == 0 and not word.search(workloads):
            uncalled.add(name)
    assert uncalled == NO_CALLER_YET


def test_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md quick start", "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out.count("\n") == 3
