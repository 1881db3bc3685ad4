"""One batch of operations, its output checks, and the per-layer metrics of its spans."""

import math
import time

from reference import NOMINAL_S
from tracing import aggregate, clock


def run_batch(ops, ctx, fingerprints: dict | None, tolerances: dict, speed=None) -> dict:
    """Run every operation once, timing it and then checking its output.

    An operation fails when it was still unconverged after the node ladder or
    when a check, including a fingerprint comparison, found a problem. Only
    the operation itself is timed, in CPU seconds (``s``) and wall seconds
    (``wall_s``); checks run outside the timed region. A ``HostSpeed`` given
    as ``speed`` samples the host between the operations, and ``place`` is
    each operation's place among its samples.
    """
    tracer = ctx.tracer
    records = []
    for op in ops:
        tracer.op = len(tracer.spans)
        start, wall_start = clock(), time.perf_counter()
        with tracer.span(f"op.{op.kind}", key=op.key):
            out = op.run(ctx)
        cpu, wall = clock() - start, time.perf_counter() - wall_start
        place = speed.after(cpu) if speed is not None else None
        if out.value is None:
            problems, fingerprint = [out.error], None
        else:
            problems, fingerprint = op.check(out)
        expected = (fingerprints or {}).get(op.key)
        if expected is not None and fingerprint is not None:
            problems += compare_fingerprint(expected, fingerprint, tolerances[op.precision])
        records.append({
            "key": op.key,
            "kind": op.kind,
            "s": cpu,
            "wall_s": wall,
            "place": place,
            "problems": problems,
            "bytes": out.bytes,
            "fingerprint": fingerprint,
        })
    return {"batch_s": sum(r["s"] for r in records), "traced": tracer.enabled, "ops": records}


def rescaled(s: float, ref_s: float) -> float:
    """CPU seconds ``s`` measured while a reference run took ``ref_s``, at the nominal host speed."""
    return s / ref_s * NOMINAL_S


def mean_batch(batches: list[dict], field: str = "s") -> dict[str, float]:
    """Mean batch time and its split by operation kind.

    ``field`` is ``s`` for CPU seconds or ``norm_s`` for CPU seconds rescaled
    to the reference speed.
    """
    out = {f"{kind}_s": 0.0 for kind in dict.fromkeys(r["kind"] for r in batches[0]["ops"])}
    for batch in batches:
        for record in batch["ops"]:
            out[f"{record['kind']}_s"] += record[field] / len(batches)
    out["batch_s"] = sum(out.values())
    return out


def compare_fingerprint(expected: dict, got: dict, rel_tol: float) -> list[str]:
    """Problems for every fingerprint field that moved by more than ``rel_tol`` (relative)."""
    problems = []
    for name, want in expected.items():
        have = got.get(name)
        pairs = zip(want, have) if isinstance(want, list) else [(want, have)]
        for w, h in pairs:
            if _is_number(w) and _is_number(h):
                same = (math.isnan(w) and math.isnan(h)) or math.isclose(w, h, rel_tol=rel_tol, abs_tol=0.0)
            else:
                same = w == h
            if not same:
                problems.append(f"{name} = {have!r}, fingerprint {want!r} (relative tolerance {rel_tol:g})")
                break
    return problems


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def per_layer(spans: list[dict], batches: int) -> dict[str, float]:
    """Per-layer metrics of the traced batches; 0 for a layer the workload never calls.

    Times, counts and bytes are per batch. The ``data`` spans come from the
    single set-up, so they are not divided.
    """
    agg = aggregate(spans)

    def get(name, field="s", attr=None):
        entry = agg.get(name)
        if entry is None:
            return 0.0
        return float(entry["attrs"].get(attr, 0) if attr else entry[field])

    def ratio(num, den):
        return num / den if den else 0.0

    mh, table, report, sweep = (
        "posterior.mh_kernel", "posterior.posterior_table", "propriety.propriety_report", "gibbs.m_sweep",
    )
    out = {
        f"{mh}.calls": get(mh, "calls") / batches,
        f"{mh}.points": get(mh, attr="points") / batches,
        f"{mh}.s": get(mh) / batches,
        f"{mh}.points_per_s": ratio(get(mh, attr="points"), get(mh)),
        f"{mh}.failed_s": get(mh, "failed_s") / batches,
        f"{mh}.converged_frac": ratio(get(mh, "calls") - get(mh, "failed"), get(mh, "calls")),
        f"{mh}.max_rel_change": get(mh, attr="max_rel_change"),
        "posterior.m0_kernel.points": get("posterior.m0_kernel", attr="points") / batches,
        "posterior.m0_kernel.s": get("posterior.m0_kernel") / batches,
        "likelihoods.ym_kernel.points": get("likelihoods.ym_kernel", attr="points") / batches,
        "likelihoods.ym_kernel.s": get("likelihoods.ym_kernel") / batches,
        f"{table}.self_s": get(table, "self_s") / batches,
        f"{table}.support_points": get(table, attr="support_points") / batches,
        "posterior.write_json.s": get("posterior.write_json") / batches,
        "posterior.write_json.bytes": get("posterior.write_json", attr="bytes") / batches,
        "posterior.write_csv.s": get("posterior.write_csv") / batches,
        "posterior.write_csv.bytes": get("posterior.write_csv", attr="bytes") / batches,
        f"{report}.calls": get(report, "calls") / batches,
        f"{report}.s": get(report) / batches,
        f"{report}.failed_s": get(report, "failed_s") / batches,
        f"{report}.agreement_frac": ratio(get(report, attr="agreement"), get(report, "calls") - get(report, "failed")),
        "propriety.write_json.s": get("propriety.write_json") / batches,
        f"{sweep}.calls": get(sweep, "calls") / batches,
        f"{sweep}.s": get(sweep) / batches,
        f"{sweep}.iters": get(sweep, attr="iters") / batches,
        "gibbs.iters_per_s": ratio(get(sweep, attr="iters"), get(sweep)),
        "gibbs.ess_per_s": ratio(get(sweep, attr="ess"), get(sweep)),
        "gibbs.ess_frac": ratio(get(sweep, attr="ess"), get(sweep, attr="draws")),
        "gibbs.write.s": get("gibbs.write") / batches,
        "data.simulate.s": get("data.simulate"),
        "data.summarize.s": get("data.summarize"),
        "data.store_load.s": get("data.store_load"),
    }
    return out
