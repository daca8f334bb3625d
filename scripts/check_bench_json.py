#!/usr/bin/env python3
"""Validate the benchmark JSON reports committed at the repo root.

Dispatches on the top-level "bench" field:

  throughput  (bench/bench_throughput) — the header fields, including the
      host (nproc, cpu_model) so that rows from different machines are not
      compared unawares, the six measurement sections (gemm, inference,
      rollout, training, gap_eval, substrates) with per-row field types, the
      strict-mode bit-identity flags, and the summary block. The substrates
      section must hold exactly one row per SUBSTRATE_NAMES entry, each with
      a positive call count and a positive per-call time.
      `--min-speedup X` additionally requires summary.batched_speedup_at_32
      >= X — CI runs with `--min-speedup 1.0` (batched must never be slower
      than the per-sample loop); the committed full-run report is held to
      the 2.0 target recorded in the summary.

  serve  (bench/bench_serve_load) — the load-run header, the exact-percentile
      latency block, and the hot-swap record. failed_requests must be 0 and
      ok_requests must equal requests_total in every report. `--min-rps X`
      additionally requires requests_per_s >= X; `--require-swap` requires
      the hot-swap block to show a mid-run policy version change
      (enabled, observed, >= 2 versions seen, last != first). When the
      report carries the per-phase attribution block ("phases": queue /
      batch / forward / write / total, from the serve.phase.* histograms),
      every phase is schema-checked, counts must agree across phases,
      percentiles must be monotone, and the four component *means* must sum
      to the end-to-end mean within 2% — the phases partition each request's
      latency exactly, and means (unlike quantiles) add, so any larger
      residual means the attribution timestamps drifted. The four component
      p50s must additionally sum to the end-to-end p50 within
      `--phase-tolerance` (default 0.25; the committed full-run report is
      held to 0.10). Quantiles of independent phases do not add in general,
      so this is a distribution-shape sanity check, not the partition proof;
      pass `--phase-tolerance inf` for short contended quick runs whose p50
      mix is dominated by scheduler noise.

  fleet  (bench/bench_fleet, `genet fleet --json`) — the run header, the
      determinism block (if checked, identical must be true: the 1-vs-4
      thread canonical digests matched byte-for-byte), and per-scenario
      metric/SLO records. Cross-checks internal consistency: session/step
      totals equal the per-scenario sums, percentiles are monotone
      (min <= p50 <= p90 <= p99 <= p999 <= max), each SLO's fraction equals
      compliant/sessions and its pass bit matches fraction vs target.
      `--require-slo` additionally requires every scenario to carry at
      least one SLO; `--min-sessions-per-s X` gates fleet throughput.

Usage:
    python3 scripts/check_bench_json.py FILE [--min-speedup X]
                                             [--min-rps X] [--require-swap]
                                             [--phase-tolerance X]
                                             [--require-slo]
                                             [--min-sessions-per-s X]

Exit status 0 on success; 1 with a diagnostic on the first failure.
Pure stdlib, no dependencies.
"""

import json
import sys

# section -> (field -> type); "num" means int or float.
ROW_SCHEMAS = {
    "gemm": {
        "batch": "int",
        "scalar_ns_per_sample": "num",
        "strict_ns_per_sample": "num",
        "fast_ns_per_sample": "num",
        "strict_speedup": "num",
        "fast_speedup": "num",
        "strict_bit_identical": "bool",
        "fast_max_rel_err": "num",
    },
    "inference": None,  # same as gemm; filled below
    "rollout": {
        "task": "str",
        "threads": "int",
        "env_steps_per_s": "num",
        "speedup_vs_serial": "num",
    },
    "training": {
        "task": "str",
        "algo": "str",
        "updates_per_s": "num",
        "env_steps_per_s": "num",
    },
    "gap_eval": {
        "task": "str",
        "baseline": "str",
        "episodes_per_s": "num",
    },
    "substrates": {
        "name": "str",
        "calls": "int",
        "us_per_call": "num",
    },
}
ROW_SCHEMAS["inference"] = ROW_SCHEMAS["gemm"]

# The substrate rows bench_throughput times: simulators, optimizers, planners.
SUBSTRATE_NAMES = (
    "abr_env_episode",
    "cc_env_episode",
    "lb_env_episode",
    "adam_step_3000",
    "gp_fit_predict_15x5",
    "bo_propose_update",
    "abr_trace_generation_200s",
    "abr_offline_optimal_beam32",
)

SUMMARY_FIELDS = {
    "batched_speedup_at_32": "num",
    "fast_speedup_at_32": "num",
    "mlp_strict_speedup_at_32": "num",
    "target_speedup_at_32": "num",
}

SERVE_HEADER = {
    "bench": "str",
    "schema_version": "int",
    "quick": "bool",
    "mode": "str",
    "sessions": "int",
    "rounds": "int",
    "connections": "int",
    "window": "int",
    "requests_total": "int",
    "ok_requests": "int",
    "failed_requests": "int",
    "duration_s": "num",
    "requests_per_s": "num",
}

SERVE_LATENCY_FIELDS = {"p50": "num", "p99": "num", "p999": "num", "max": "num"}

SERVE_SWAP_FIELDS = {
    "enabled": "bool",
    "observed": "bool",
    "first_version": "int",
    "last_version": "int",
}

SERVE_PHASE_FIELDS = {
    "count": "int",
    "mean_ms": "num",
    "p50_ms": "num",
    "p99_ms": "num",
    "max_ms": "num",
}

# The four components partition "total" exactly per request (DESIGN.md S5j):
# queue-wait + batch-formation + forward + write-back == end-to-end.
SERVE_PHASE_NAMES = ("queue", "batch", "forward", "write", "total")


FLEET_HEADER = {
    "bench": "str",
    "schema_version": "int",
    "quick": "bool",
    "seed": "int",
    "threads": "int",
    "shards": "int",
    "worst_k": "int",
    "sessions_total": "int",
    "steps_total": "int",
    "duration_s": "num",
    "sessions_per_s": "num",
    "steps_per_s": "num",
}

FLEET_DETERMINISM_FIELDS = {
    "checked": "bool",
    "threads_a": "int",
    "threads_b": "int",
    "identical": "bool",
}

FLEET_SCENARIO_FIELDS = {
    "name": "str",
    "task": "str",
    "space": "int",
    "sessions": "int",
    "steps": "int",
    "duration_s": "num",
    "sessions_per_s": "num",
    "trace_set": "str",
    "trace_prob": "num",
    "flight_path": "str",
    "flight_episodes": "int",
}

FLEET_METRIC_FIELDS = {
    "name": "str",
    "count": "int",
    "mean": "num",
    "min": "num",
    "max": "num",
    "p50": "num",
    "p90": "num",
    "p99": "num",
    "p999": "num",
    "exact": "bool",
    "dropped": "int",
    "saturated": "int",
}

FLEET_SLO_FIELDS = {
    "metric": "str",
    "op": "str",
    "threshold": "num",
    "target_fraction": "num",
    "compliant": "int",
    "fraction": "num",
    "pass": "bool",
}


def type_ok(value, kind):
    if kind == "int":
        return isinstance(value, int) and not isinstance(value, bool)
    if kind == "num":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind == "bool":
        return isinstance(value, bool)
    if kind == "str":
        return isinstance(value, str)
    return False


def check_fields(where, obj, schema):
    for field, kind in schema.items():
        if field not in obj:
            return f"{where}: missing field '{field}'"
        if not type_ok(obj[field], kind):
            return (
                f"{where}: field '{field}' has wrong type "
                f"({type(obj[field]).__name__}, want {kind})"
            )
    return None


def check_throughput(path, doc, opts):
    header = {
        "bench": "str",
        "schema_version": "int",
        "quick": "bool",
        "threads_available": "int",
        "nproc": "int",
        "cpu_model": "str",
        "cpu_avx2_fma": "bool",
    }
    err = check_fields(path, doc, header)
    if err:
        return err
    if doc["schema_version"] != 1:
        return f"{path}: unknown schema_version {doc['schema_version']}"

    for section, schema in ROW_SCHEMAS.items():
        rows = doc.get(section)
        if not isinstance(rows, list) or not rows:
            return f"{path}: section '{section}' missing or empty"
        for i, row in enumerate(rows):
            where = f"{path}: {section}[{i}]"
            if not isinstance(row, dict):
                return f"{where}: not an object"
            err = check_fields(where, row, schema)
            if err:
                return err
            if "strict_bit_identical" in row and not row["strict_bit_identical"]:
                return (
                    f"{where}: strict batched result was not bit-identical "
                    f"to the per-sample loop (batch {row['batch']})"
                )

    names = [row["name"] for row in doc["substrates"]]
    if sorted(names) != sorted(SUBSTRATE_NAMES):
        return (
            f"{path}: substrates rows are {names}, "
            f"want one each of {list(SUBSTRATE_NAMES)}"
        )
    for row in doc["substrates"]:
        if row["calls"] <= 0 or not row["us_per_call"] > 0:
            return (
                f"{path}: substrates row '{row['name']}' needs calls > 0 and "
                f"us_per_call > 0"
            )

    # The speedup headline is defined at batch 32; require that the row the
    # summary is derived from actually exists.
    if not any(row["batch"] == 32 for row in doc["gemm"]):
        return f"{path}: gemm section has no batch=32 row"

    summary = doc.get("summary")
    if not isinstance(summary, dict):
        return f"{path}: summary missing"
    err = check_fields(f"{path}: summary", summary, SUMMARY_FIELDS)
    if err:
        return err
    if opts["min_speedup"] is not None:
        got = summary["batched_speedup_at_32"]
        if got < opts["min_speedup"]:
            return (
                f"{path}: batched_speedup_at_32 is {got:.2f}, "
                f"below required {opts['min_speedup']:.2f}"
            )
    return None


def check_serve(path, doc, opts):
    err = check_fields(path, doc, SERVE_HEADER)
    if err:
        return err
    if doc["schema_version"] != 1:
        return f"{path}: unknown schema_version {doc['schema_version']}"
    if doc["mode"] not in ("self", "external"):
        return f"{path}: mode is '{doc['mode']}', want 'self' or 'external'"

    # A committed or CI serve report is only valid if the run was clean:
    # every single request answered, none failed, even across the hot swap.
    if doc["failed_requests"] != 0:
        return f"{path}: failed_requests is {doc['failed_requests']}, want 0"
    if doc["ok_requests"] != doc["requests_total"]:
        return (
            f"{path}: ok_requests {doc['ok_requests']} != "
            f"requests_total {doc['requests_total']}"
        )
    if doc["requests_total"] != doc["sessions"] * doc["rounds"]:
        return (
            f"{path}: requests_total {doc['requests_total']} != "
            f"sessions*rounds {doc['sessions'] * doc['rounds']}"
        )

    latency = doc.get("latency_ms")
    if not isinstance(latency, dict):
        return f"{path}: latency_ms missing"
    err = check_fields(f"{path}: latency_ms", latency, SERVE_LATENCY_FIELDS)
    if err:
        return err
    if not latency["p50"] <= latency["p99"] <= latency["p999"] <= latency["max"]:
        return f"{path}: latency percentiles are not monotone"
    if latency["p50"] <= 0:
        return f"{path}: latency p50 is not positive"

    phases = doc.get("phases")
    if phases is not None:  # pre-S5j reports lack the attribution block
        if not isinstance(phases, dict):
            return f"{path}: phases is not an object"
        for name in SERVE_PHASE_NAMES:
            phase = phases.get(name)
            if not isinstance(phase, dict):
                return f"{path}: phases.{name} missing"
            err = check_fields(f"{path}: phases.{name}", phase,
                               SERVE_PHASE_FIELDS)
            if err:
                return err
            if not phase["p50_ms"] <= phase["p99_ms"] <= phase["max_ms"]:
                return f"{path}: phases.{name} percentiles are not monotone"
            if phase["count"] != phases["total"]["count"]:
                return (
                    f"{path}: phases.{name}.count {phase['count']} != "
                    f"total.count {phases['total']['count']} — every acted "
                    f"request records every phase"
                )
        # The exact check: per request queue+batch+forward+write == total,
        # and means add, so the mean residual is pure attribution drift (plus
        # JSON rounding) no matter how noisy the run was.
        total_mean = phases["total"]["mean_ms"]
        mean_sum = sum(
            phases[name]["mean_ms"] for name in SERVE_PHASE_NAMES[:-1]
        )
        if total_mean > 0:
            residual = abs(mean_sum - total_mean) / total_mean
            if residual > 0.02:
                return (
                    f"{path}: phase means sum to {mean_sum:.4f}ms but "
                    f"end-to-end mean is {total_mean:.4f}ms "
                    f"(residual {residual:.1%} > 2%) — attribution "
                    f"timestamps no longer partition the request"
                )
        total_p50 = phases["total"]["p50_ms"]
        component_sum = sum(
            phases[name]["p50_ms"] for name in SERVE_PHASE_NAMES[:-1]
        )
        if total_p50 > 0:
            residual = abs(component_sum - total_p50) / total_p50
            if residual > opts["phase_tolerance"]:
                return (
                    f"{path}: phase p50s sum to {component_sum:.4f}ms but "
                    f"end-to-end p50 is {total_p50:.4f}ms "
                    f"(residual {residual:.1%} > "
                    f"{opts['phase_tolerance']:.0%}) — the latency "
                    f"distribution shape shifted; rerun on an unloaded "
                    f"machine or loosen --phase-tolerance for quick runs"
                )

    swap = doc.get("hot_swap")
    if not isinstance(swap, dict):
        return f"{path}: hot_swap missing"
    err = check_fields(f"{path}: hot_swap", swap, SERVE_SWAP_FIELDS)
    if err:
        return err
    versions = swap.get("versions_seen")
    if not isinstance(versions, list) or not all(
        isinstance(v, int) and not isinstance(v, bool) for v in versions
    ):
        return f"{path}: hot_swap.versions_seen missing or not a list of ints"

    if opts["min_rps"] is not None and doc["requests_per_s"] < opts["min_rps"]:
        return (
            f"{path}: requests_per_s is {doc['requests_per_s']:.0f}, "
            f"below required {opts['min_rps']:.0f}"
        )
    if opts["require_swap"]:
        if not (swap["enabled"] and swap["observed"]):
            return f"{path}: hot swap not observed (enabled+observed required)"
        if len(set(versions)) < 2:
            return f"{path}: hot swap saw {versions}, want >= 2 versions"
        if swap["last_version"] == swap["first_version"]:
            return (
                f"{path}: last served version equals the first "
                f"(v{swap['first_version']}) — swap never took effect"
            )
    return None


def check_fleet(path, doc, opts):
    err = check_fields(path, doc, FLEET_HEADER)
    if err:
        return err
    if doc["schema_version"] != 1:
        return f"{path}: unknown schema_version {doc['schema_version']}"

    det = doc.get("determinism")
    if not isinstance(det, dict):
        return f"{path}: determinism block missing"
    err = check_fields(f"{path}: determinism", det, FLEET_DETERMINISM_FIELDS)
    if err:
        return err
    # A report whose run re-asserted determinism is only valid when the two
    # canonical digests actually matched; an unchecked report (plain
    # `genet fleet --json`) is allowed but can't claim identity.
    if det["checked"] and not det["identical"]:
        return (
            f"{path}: determinism was checked at {det['threads_a']} vs "
            f"{det['threads_b']} threads and the digests DIFFERED"
        )

    scenarios = doc.get("scenarios")
    if not isinstance(scenarios, list) or not scenarios:
        return f"{path}: scenarios missing or empty"
    sessions_sum = 0
    steps_sum = 0
    for i, sc in enumerate(scenarios):
        where = f"{path}: scenarios[{i}]"
        if not isinstance(sc, dict):
            return f"{where}: not an object"
        err = check_fields(where, sc, FLEET_SCENARIO_FIELDS)
        if err:
            return err
        if sc["task"] not in ("abr", "cc", "lb"):
            return f"{where}: unknown task '{sc['task']}'"
        if sc["sessions"] <= 0:
            return f"{where}: sessions is {sc['sessions']}, want > 0"
        sessions_sum += sc["sessions"]
        steps_sum += sc["steps"]

        metrics = sc.get("metrics")
        if not isinstance(metrics, list) or not metrics:
            return f"{where}: metrics missing or empty"
        for j, m in enumerate(metrics):
            mwhere = f"{where}.metrics[{j}]"
            if not isinstance(m, dict):
                return f"{mwhere}: not an object"
            err = check_fields(mwhere, m, FLEET_METRIC_FIELDS)
            if err:
                return err
            if m["count"] != sc["sessions"]:
                return (
                    f"{mwhere}: count {m['count']} != scenario sessions "
                    f"{sc['sessions']}"
                )
            if not (
                m["min"] <= m["p50"] <= m["p90"] <= m["p99"] <= m["p999"]
                <= m["max"]
            ):
                return f"{mwhere}: percentiles are not monotone"
            if not m["min"] <= m["mean"] <= m["max"]:
                return f"{mwhere}: mean outside [min, max]"

        metric_names = {m["name"] for m in metrics}
        slos = sc.get("slos")
        if not isinstance(slos, list):
            return f"{where}: slos missing (empty list allowed)"
        if opts["require_slo"] and not slos:
            return f"{where}: no SLOs (--require-slo)"
        for j, slo in enumerate(slos):
            swhere = f"{where}.slos[{j}]"
            if not isinstance(slo, dict):
                return f"{swhere}: not an object"
            err = check_fields(swhere, slo, FLEET_SLO_FIELDS)
            if err:
                return err
            if slo["op"] not in ("<=", ">="):
                return f"{swhere}: op is '{slo['op']}', want '<=' or '>='"
            if slo["metric"] not in metric_names:
                return (
                    f"{swhere}: SLO metric '{slo['metric']}' not in the "
                    f"scenario's metrics {sorted(metric_names)}"
                )
            want_fraction = slo["compliant"] / sc["sessions"]
            if abs(slo["fraction"] - want_fraction) > 1e-9:
                return (
                    f"{swhere}: fraction {slo['fraction']} != "
                    f"compliant/sessions {want_fraction}"
                )
            want_pass = slo["fraction"] >= slo["target_fraction"] - 1e-12
            if slo["pass"] != want_pass:
                return (
                    f"{swhere}: pass is {slo['pass']} but fraction "
                    f"{slo['fraction']} vs target {slo['target_fraction']} "
                    f"says {want_pass}"
                )

    if sessions_sum != doc["sessions_total"]:
        return (
            f"{path}: sessions_total {doc['sessions_total']} != scenario sum "
            f"{sessions_sum}"
        )
    if steps_sum != doc["steps_total"]:
        return (
            f"{path}: steps_total {doc['steps_total']} != scenario sum "
            f"{steps_sum}"
        )
    if opts["min_sessions_per_s"] is not None:
        got = doc["sessions_per_s"]
        if got < opts["min_sessions_per_s"]:
            return (
                f"{path}: sessions_per_s is {got:.0f}, below required "
                f"{opts['min_sessions_per_s']:.0f}"
            )
    return None


def summarize(doc):
    if doc["bench"] == "throughput":
        rows = sum(len(doc[s]) for s in ROW_SCHEMAS)
        speedup = doc["summary"]["batched_speedup_at_32"]
        return f"{rows} rows, batched_speedup_at_32 {speedup:.2f}x"
    if doc["bench"] == "fleet":
        slos = [s for sc in doc["scenarios"] for s in sc["slos"]]
        passing = sum(1 for s in slos if s["pass"])
        det = doc["determinism"]
        det_note = (
            f"determinism {det['threads_a']}v{det['threads_b']} identical"
            if det["checked"]
            else "determinism unchecked"
        )
        return (
            f"{doc['sessions_total']} sessions over "
            f"{len(doc['scenarios'])} scenarios, "
            f"{doc['sessions_per_s']:.0f} sessions/s, "
            f"SLOs {passing}/{len(slos)} passing, {det_note}"
        )
    latency = doc["latency_ms"]
    return (
        f"{doc['sessions']} sessions, {doc['requests_per_s']:.0f} req/s, "
        f"p50 {latency['p50']:.2f}ms p99 {latency['p99']:.2f}ms "
        f"p99.9 {latency['p999']:.2f}ms, versions "
        f"{doc['hot_swap']['versions_seen']}"
    )


def main() -> int:
    argv = sys.argv[1:]
    path = None
    opts = {
        "min_speedup": None,
        "min_rps": None,
        "require_swap": False,
        "require_slo": False,
        "min_sessions_per_s": None,
        "phase_tolerance": 0.25,
    }
    i = 0
    while i < len(argv):
        if argv[i] in ("--min-speedup", "--min-rps", "--min-sessions-per-s",
                       "--phase-tolerance"):
            key = argv[i].lstrip("-").replace("-", "_")
            if i + 1 >= len(argv):
                print(f"{argv[i]} needs a value", file=sys.stderr)
                return 1
            try:
                opts[key] = float(argv[i + 1])
            except ValueError:
                print(f"bad {argv[i]} value '{argv[i + 1]}'", file=sys.stderr)
                return 1
            i += 2
            continue
        if argv[i] == "--require-swap":
            opts["require_swap"] = True
            i += 1
            continue
        if argv[i] == "--require-slo":
            opts["require_slo"] = True
            i += 1
            continue
        if path is None:
            path = argv[i]
        else:
            print(__doc__, file=sys.stderr)
            return 1
        i += 1
    if path is None:
        print(__doc__, file=sys.stderr)
        return 1

    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        print(f"{path}: {err}", file=sys.stderr)
        return 1

    if not isinstance(doc, dict):
        print(f"{path}: top level is not a JSON object", file=sys.stderr)
        return 1
    checkers = {
        "throughput": check_throughput,
        "serve": check_serve,
        "fleet": check_fleet,
    }
    bench = doc.get("bench")
    if bench not in checkers:
        print(
            f"{path}: bench is {bench!r}, want one of {sorted(checkers)}",
            file=sys.stderr,
        )
        return 1

    err = checkers[bench](path, doc, opts)
    if err:
        print(err, file=sys.stderr)
        return 1
    print(f"{path}: schema OK ({summarize(doc)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
