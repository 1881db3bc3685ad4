"""Command-line surface: simulate, analyze, check-propriety, da-sweep, ym.

Every command writes machine-readable output (JSON, with CSV side files for
plotting) plus a run manifest, and reports through exit codes:

    0  success
    2  usage or validation error, or an unreadable or unwritable file
    3  analysis completed, but the posterior is improper or its table
       warned (tail fit too shallow, support too narrow). analyze and ym
       share this path: when the exact tail exponent of the model's kernel
       fails the propriety rule, both warn "posterior improper: the <model>
       kernel decays exactly like N^-<d> ..." and exit 3
    4  analytic propriety verdict and empirical tail fit disagree
       (check-propriety)
    5  numeric failure (quadrature did not converge, tail fit impossible)
"""

import argparse
import dataclasses
import hashlib
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .data import load_history, simulate_m0, simulate_mh, store_history, summarize, write_json
from .gibbs import DaConfig, m_sweep
from .likelihoods import BetaParams
from .posterior import _N_PRIORS, GammaPriors, QuadratureConvergenceError, _prior_power, posterior_table
from .propriety import IMPROPER, FitConfig, TailFitError, _verdict, model_kernel, propriety_report, write_exponent_csv

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IMPROPER = 3
EXIT_DISAGREEMENT = 4
EXIT_NUMERIC = 5


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(args, out_path: Path, input_path: Path | None) -> None:
    manifest = {
        "command": args.command,
        "params": _params_of(args),
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "input_digest": _digest(input_path) if input_path else None,
        "created_at": datetime.now(timezone.utc).isoformat(),
    }
    write_json(Path(str(out_path) + ".manifest.json"), manifest)


def _probability(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"{text} is not a probability in [0, 1]")
    return value


def _positive(text: str) -> float:
    value = float(text)
    if not 0 < value < np.inf:
        raise argparse.ArgumentTypeError(f"{text} is not a finite positive number")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"{text} is not a positive integer")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crbayes",
        description="Bayesian population-size posteriors and propriety checks "
        "for closed capture-recapture data",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate a dataset and write it with a manifest")
    sim.add_argument("--model", choices=("m0", "mh"), required=True)
    sim.add_argument("--n", type=_positive_int, required=True, help="true population size")
    sim.add_argument("--p", type=_probability, help="detection probability (m0)")
    sim.add_argument("--alpha", type=_positive, help="Beta shape for per-animal rates (mh)")
    sim.add_argument("--beta", type=_positive, help="Beta shape for per-animal rates (mh)")
    sim.add_argument("--k", type=_positive_int, required=True, help="sampling occasions")
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--out", type=Path, required=True)
    sim.add_argument("--format", choices=("json", "csv"), default=None)

    # priors and quadrature settings shared by analyze and check-propriety
    priors = argparse.ArgumentParser(add_help=False)
    priors.add_argument("--n-prior", choices=tuple(_N_PRIORS), default="uniform")
    priors.add_argument("--a", type=_positive, default=1.0, help="Beta prior shape on p (m0)")
    priors.add_argument("--b", type=_positive, default=1.0, help="Beta prior shape on p (m0)")
    priors.add_argument("--shape-a", type=_positive, default=2.0, help="Gamma shape on alpha (mh)")
    priors.add_argument("--shape-b", type=_positive, default=2.0, help="Gamma shape on beta (mh)")
    priors.add_argument("--scale-c", type=_positive, default=1.0, help="common Gamma scale (mh)")
    priors.add_argument("--nodes", type=_positive_int, default=64,
                        help="quadrature nodes per axis (mh), at most 363")
    priors.add_argument("--check-nodes", type=_positive_int, default=96, help="check rule nodes, at most 363")
    priors.add_argument("--quad-rtol", type=_positive, default=1e-4)

    ana = sub.add_parser("analyze", parents=[priors], help="posterior of N for a dataset")
    ana.add_argument("--data", type=Path, required=True)
    ana.add_argument("--model", choices=("m0", "mh"), required=True)
    ana.add_argument("--n-max", type=_positive_int, default=10_000)
    ana.add_argument("--level", type=_probability, default=0.95)
    ana.add_argument("--improper-margin", type=_positive, default=0.05)
    ana.add_argument("--out", type=Path, required=True, help="output prefix (.json/.csv added)")

    chk = sub.add_parser(
        "check-propriety", parents=[priors], help="analytic verdict vs fitted tail exponent"
    )
    chk.add_argument("--model", choices=("m0", "mh", "ym"))
    chk.add_argument("--data", type=Path, help="dataset (m0/mh)")
    chk.add_argument("--n", type=_positive_int, help="observed count (ym)")
    chk.add_argument("--k", type=_positive_int, help="cells (ym)")
    chk.add_argument("--delta", type=_positive, help="Dirichlet parameter (ym)")
    chk.add_argument("--fit-lo", type=_positive, default=None)
    chk.add_argument("--fit-hi", type=_positive, default=None)
    chk.add_argument("--fit-points", type=_positive_int, default=50)
    chk.add_argument("--tolerance", type=_positive, default=0.05)
    chk.add_argument(
        "--synthetic-exponent",
        type=_positive,
        default=None,
        help="fit a pure N^-d kernel instead of a model (sanity mode)",
    )
    chk.add_argument("--out", type=Path, required=True,
                     help="output prefix (.json added; .csv too with --synthetic-exponent)")

    swp = sub.add_parser("da-sweep", help="posterior mean of N versus augmented size M")
    swp.add_argument("--data", type=Path, required=True)
    swp.add_argument("--m", required=True, help="comma-separated augmented sizes, e.g. 200,500,1000")
    swp.add_argument("--iters", type=_positive_int, default=20_000)
    swp.add_argument("--burnin", type=int, default=2_000)
    swp.add_argument("--thin", type=_positive_int, default=1)
    swp.add_argument("--seed", type=int, default=0)
    swp.add_argument("--a-psi", type=_positive, default=1.0)
    swp.add_argument("--b-psi", type=_positive, default=1.0)
    swp.add_argument("--a-p", type=_positive, default=1.0)
    swp.add_argument("--b-p", type=_positive, default=1.0)
    swp.add_argument("--out", type=Path, required=True, help="output prefix (.json/.csv added)")

    ym = sub.add_parser("ym", help="Dirichlet-multinomial posterior of N")
    ym.add_argument("--n", type=_positive_int, required=True, help="observed count")
    ym.add_argument("--k", type=_positive_int, required=True, help="cells")
    ym.add_argument("--delta", type=_positive, required=True)
    ym.add_argument("--prior", choices=tuple(_N_PRIORS), default="uniform")
    ym.add_argument("--n-max", type=_positive_int, default=100_000)
    ym.add_argument("--level", type=_probability, default=0.95)
    ym.add_argument("--improper-margin", type=_positive, default=0.05)
    ym.add_argument("--out", type=Path, required=True, help="output prefix (.json/.csv added)")
    return parser


def _cmd_simulate(args) -> int:
    if args.model == "m0":
        if args.p is None:
            raise ValueError("simulate --model m0 needs --p")
        history = simulate_m0(args.n, args.p, args.k, args.seed)
    else:
        if args.alpha is None or args.beta is None:
            raise ValueError("simulate --model mh needs --alpha and --beta")
        history = simulate_mh(args.n, args.alpha, args.beta, args.k, args.seed)
    store_history(history, args.out, fmt=args.format)
    _write_manifest(args, args.out, args.out)
    print(f"wrote {history.n_observed} observed histories over {history.k} occasions to {args.out}")
    return EXIT_OK


def _refuse_out_on_data(args) -> None:
    """Refuse, before anything is written, an --out prefix whose files would land on --data."""
    data = getattr(args, "data", None)
    suffixes = [".json", ".json.manifest.json"]
    if args.command != "check-propriety" or args.synthetic_exponent is not None:
        suffixes.append(".csv")
    for path in (Path(str(args.out) + suffix) for suffix in suffixes):
        if data is not None and path.resolve() == data.resolve():
            raise ValueError(f"--out {args.out} would overwrite the dataset {data} with {path}")


def _model_params(args, model: str) -> tuple[dict, Path | None]:
    """``model_kernel`` keywords for ``model`` from the command's flags, and the
    dataset they read: --synthetic-exponent, --n/--k/--delta for ym, and
    --data with the shared prior flags for m0 and mh."""
    if model == "synthetic":
        return {"synthetic_exponent": args.synthetic_exponent}, None
    if model == "ym":
        if args.n is None or args.k is None or args.delta is None:
            raise ValueError(f"{args.command} --model ym needs --n, --k and --delta")
        return {"ym_n": args.n, "ym_k": args.k, "ym_delta": args.delta}, None
    if args.data is None:
        raise ValueError(f"{args.command} --model {model} needs --data")
    stats = summarize(load_history(args.data))
    if model == "m0":
        return {"stats": stats, "beta": BetaParams(args.a, args.b)}, args.data
    return dict(stats=stats, gammas=GammaPriors(args.shape_a, args.shape_b, args.scale_c),
                quad_nodes=args.nodes, quad_check_nodes=args.check_nodes, quad_rtol=args.quad_rtol), args.data


def _posterior_command(args, model: str, n_prior: str, kernel, input_path: Path | None, describe) -> int:
    """The path analyze and ym share, from the posterior table to the exit code.

    The table starts at the kernel's support start. The verdict comes from the
    kernel's exact exponent, and an improper one adds a warning that names it.
    ``describe(table, verdict)`` returns the command's JSON keys after
    "model" and "n_prior", and its stdout lines. Exit 3 whenever the table
    carries a warning.
    """
    table = posterior_table(kernel.log_kernel, n_prior, n_min=kernel.support_start, n_max=args.n_max,
                            level=args.level, improper_margin=args.improper_margin)
    verdict = _verdict(kernel.exponent, _prior_power(n_prior))
    if verdict == IMPROPER:
        table = dataclasses.replace(table, warnings=table.warnings + (
            f"posterior improper: the {model} kernel decays exactly like N^-{kernel.exponent:.15g}, "
            f"so prior times kernel does not decay faster than 1/N under the {n_prior} prior",
        ))
    extra, lines = describe(table, verdict)

    json_path = Path(str(args.out) + ".json")
    table.write_json(json_path, extra={"model": model, "n_prior": n_prior, **extra})
    table.write_csv(Path(str(args.out) + ".csv"))
    _write_manifest(args, json_path, input_path)

    for line in lines:
        print(line)
    for warning in table.warnings:
        print(f"  WARNING: {warning}", file=sys.stderr)
    return EXIT_IMPROPER if table.warnings else EXIT_OK


def _cmd_analyze(args) -> int:
    params, input_path = _model_params(args, args.model)
    kernel = model_kernel(args.model, **params)

    def describe(table, verdict):
        if args.model == "m0":
            prior = {"a": args.a, "b": args.b}
        else:
            prior = {"shape_a": args.shape_a, "shape_b": args.shape_b, "scale_c": args.scale_c}
        extra: dict = {"detection_prior": prior}
        lines = [
            f"posterior of N on [{table.n_min}, {table.n_max}] ({args.model}, {args.n_prior} prior)",
            f"  mean = {table.mean:.4f}   sd = {table.sd:.4f}",
            f"  {int(table.level * 100)}% equal-tail CI = [{table.ci[0]:.0f}, {table.ci[1]:.0f}]",
            f"  tail mass beyond N_max ~ {table.tail_mass_estimate:.3e} "
            f"(fitted exponent {table.tail_exponent:.3f})",
        ]
        if kernel.mh is not None:
            q = kernel.mh.diagnostics
            extra["quadrature"] = dict(q)
            lines.append(f"  {q['rule']} quadrature max relative change {q['max_rel_change']:.3e} "
                         f"({q['nodes']}^2 vs {q['check_nodes']}^2 nodes)")
        extra["verdict"] = verdict
        return extra, lines

    return _posterior_command(args, args.model, args.n_prior, kernel, input_path, describe)


def _cmd_check_propriety(args) -> int:
    fit = FitConfig(n_lo=args.fit_lo, n_hi=args.fit_hi, points=args.fit_points, tolerance=args.tolerance)
    json_path = Path(str(args.out) + ".json")
    synthetic = args.synthetic_exponent is not None
    if not synthetic and args.model is None:
        raise ValueError("check-propriety needs --model or --synthetic-exponent")
    model = "synthetic" if synthetic else args.model
    params, input_path = _model_params(args, model)
    # the sanity mode fits the bare power law, whatever --n-prior says
    report = propriety_report(model, "uniform" if synthetic else args.n_prior, fit=fit, **params)

    if synthetic:
        d = args.synthetic_exponent
        write_json(json_path, {
            "model": model,
            "requested_exponent": d,
            "fitted_exponent": report.fitted_exponent,
            "fitted_std_err": report.fitted_std_err,
            "agreement": report.agreement,
        })
        write_exponent_csv(model_kernel(model, **params).log_kernel, *report.fit_range, report.fit_points,
                           Path(str(args.out) + ".csv"))
        _write_manifest(args, json_path, input_path)
        print(f"synthetic kernel N^-{d}: fitted exponent {report.fitted_exponent:.4f} +- {report.fitted_std_err:.2e}")
        return EXIT_OK if report.agreement else EXIT_DISAGREEMENT

    report.write_json(json_path)
    _write_manifest(args, json_path, input_path)

    print(f"{args.model} under {args.n_prior} prior: predicted {report.predicted}")
    print(
        f"  analytic exponent {report.analytic_total_exponent:.4f} (prior included), "
        f"fitted {report.fitted_exponent:.4f} +- {report.fitted_std_err:.2e}"
    )
    print(f"  agreement: {report.agreement}")
    for warning in report.warnings:
        print(f"  WARNING: {warning}", file=sys.stderr)
    return EXIT_OK if report.agreement else EXIT_DISAGREEMENT


def _cmd_da_sweep(args) -> int:
    history = load_history(args.data)
    try:
        m_values = [int(v) for v in args.m.split(",") if v.strip()]
    except ValueError as exc:
        raise ValueError(f"bad --m list: {exc}")
    base = DaConfig(
        m=max(m_values, default=0),  # m_sweep rejects a list without two distinct sizes
        iters=args.iters,
        burnin=args.burnin,
        thin=args.thin,
        seed=args.seed,
        psi_prior=(args.a_psi, args.b_psi),
        p_prior=BetaParams(args.a_p, args.b_p),
    )
    report = m_sweep(history, m_values, base)
    json_path = Path(str(args.out) + ".json")
    report.write_json(json_path)
    report.write_csv(Path(str(args.out) + ".csv"))
    _write_manifest(args, json_path, args.data)

    print("M        mean_N      sd_N        ESS")
    for e in report.entries:
        print(f"{e.m:<8d} {e.mean_n:<11.4f} {e.sd_n:<11.4f} {e.ess:.0f}")
    print(
        f"slope of mean vs M: {report.slope:.5f} +- {report.slope_se:.5f} "
        f"(z = {report.slope_z:.2f}); sd ratio last/first = {report.sd_ratio:.3f}"
    )
    print("stable" if report.stable else
          f"UNSTABLE: mean of N moved {report.relative_change:.1%} across the sweep")
    return EXIT_OK


def _cmd_ym(args) -> int:
    params, input_path = _model_params(args, "ym")
    kernel = model_kernel("ym", **params)

    def describe(table, verdict):
        report = propriety_report("ym", args.prior, **params)
        return {"verdict": verdict, "propriety": report.to_dict()}, [
            f"Dirichlet-multinomial: k={args.k}, delta={args.delta}, {args.prior} prior -> {verdict}",
            f"  kernel exponent: analytic {report.analytic_exponent:.4f}, "
            f"fitted {report.fitted_exponent:.4f} +- {report.fitted_std_err:.2e}",
            f"  truncated posterior mean = {table.mean:.4f}, sd = {table.sd:.4f}",
        ]

    return _posterior_command(args, "ym", args.prior, kernel, input_path, describe)


def _params_of(args) -> dict:
    return {key: str(value) if isinstance(value, Path) else value
            for key, value in sorted(vars(args).items()) if key != "command"}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    handlers = {
        "simulate": _cmd_simulate,
        "analyze": _cmd_analyze,
        "check-propriety": _cmd_check_propriety,
        "da-sweep": _cmd_da_sweep,
        "ym": _cmd_ym,
    }
    try:
        _refuse_out_on_data(args)
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (QuadratureConvergenceError, TailFitError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
