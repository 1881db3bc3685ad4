"""The package's public surface: what it exports, and the README example that uses it."""

import ast
import re
from pathlib import Path

import crbayes

ROOT = Path(__file__).resolve().parent.parent

PUBLIC = {
    "BetaParams", "CaptureHistory", "DaChains", "DaConfig", "FitConfig", "GammaPriors",
    "InvalidHistoryError", "MhMarginalKernel", "PosteriorTable", "ProprietyReport",
    "QuadratureConvergenceError", "SufficientStats", "SweepReport", "TailFitError",
    "da_gibbs", "effective_sample_size", "kahn_log_prob", "load_history",
    "m0_marginal_log_kernel", "m0_propriety_condition", "m_sweep",
    "mh_propriety_condition", "posterior_table", "propriety_report", "simulate_m0",
    "simulate_mh", "store_history", "summarize", "ym_propriety_condition",
    "york_madigan_log_kernel",
}

# kahn_log_prob is Kahn's count likelihood, which Link (2013) builds on; the
# ROADMAP's item 5 gives it a command that compares its tail with m0's
NO_CALLER_YET = {"kahn_log_prob"}


def test_public_names_are_pinned():
    assert len(crbayes.__all__) == len(set(crbayes.__all__)) == 30
    assert set(crbayes.__all__) == PUBLIC


def _uses(node) -> set[str]:
    """Names that ``node`` loads, or imports with ``from ... import``. Strings,
    attribute reads, keyword names and dataclass fields are not uses."""
    uses = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            uses.add(child.id)
        elif isinstance(child, ast.ImportFrom):
            uses.update(alias.name for alias in child.names)
    return uses


def test_every_top_level_definition_has_a_caller():
    # a caller is a use in a package module other than __init__.py, outside
    # the definition itself, or in the benchmark's workloads; tests and docs
    # do not count
    modules = {p.name: ast.parse(p.read_text()) for p in sorted((ROOT / "src" / "crbayes").glob("*.py"))}
    statements = [(stmt, _uses(stmt)) for name, tree in modules.items() if name != "__init__.py" for stmt in tree.body]
    workloads = _uses(ast.parse((ROOT / "perfbench" / "workloads.py").read_text()))
    uncalled = {
        definition.name
        for tree in modules.values()
        for definition in tree.body
        if isinstance(definition, (ast.FunctionDef, ast.ClassDef))
        and definition.name not in workloads
        and not any(definition.name in uses for stmt, uses in statements if stmt is not definition)
    }
    assert uncalled == NO_CALLER_YET


def test_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md quick start", "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out.count("\n") == 3
