#!/usr/bin/env python3
"""Split bench_output.txt into per-experiment CSV files.

The experiment harnesses print human-readable tables; this script slices the
combined output back into one block per experiment and converts every
whitespace-aligned table row into CSV, so the figures can be re-plotted with
any tool. Pure stdlib, no dependencies.

A `BENCH_*.json` report (e.g. BENCH_throughput.json from bench_throughput)
can be passed instead of the text log: every top-level array-of-objects
section becomes its own CSV (keys in first-row order), so the perf
trajectory plots share the pipeline with the figure tables. For
BENCH_throughput.json those are gemm, inference, rollout, training,
gap_eval and substrates.

BENCH_fleet.json nests per-scenario metric and SLO lists inside the
"scenarios" array, which the generic flattener can't represent; fleet
reports instead produce three CSVs — <stem>_scenarios.csv (one row per
scenario, scalar fields only), <stem>_metrics.csv and <stem>_slos.csv
(one row per scenario x metric/SLO, scenario name in the first column).

BENCH_serve.json similarly produces <stem>_summary.csv (the scalar run
header with the latency percentiles inlined as latency_*_ms columns) and,
when the report carries the per-phase attribution block, <stem>_phases.csv
with one row per phase (queue/batch/forward/write/total) and the
count/mean_ms/p50_ms/p99_ms/max_ms columns.

Usage:
    python3 scripts/bench_to_csv.py [bench_output.txt | BENCH_x.json] [output_dir]
"""

import json
import os
import re
import sys


def slugify(title: str) -> str:
    slug = re.sub(r"[^a-zA-Z0-9]+", "_", title.lower()).strip("_")
    return slug[:60]


def split_experiments(lines):
    """Yield (title, block_lines) for each ====-delimited experiment."""
    title = None
    block = []
    i = 0
    while i < len(lines):
        if lines[i].startswith("====") and i + 1 < len(lines):
            if title is not None:
                yield title, block
            title = lines[i + 1].strip()
            block = []
            # Skip the header: title line, "paper:" line(s), closing ====.
            i += 2
            while i < len(lines) and not lines[i].startswith("===="):
                i += 1
            i += 1
            continue
        if title is not None:
            block.append(lines[i].rstrip("\n"))
        i += 1
    if title is not None:
        yield title, block


def table_rows(block):
    """Convert aligned table lines into CSV rows (best effort)."""
    rows = []
    for line in block:
        if not line.strip() or line.startswith("[train]"):
            continue
        # Split on runs of 2+ spaces so multi-word labels stay together.
        cells = [c.strip() for c in re.split(r"\s{2,}", line.strip()) if c.strip()]
        if len(cells) >= 2:
            rows.append(cells)
    return rows


ROUND_LINE = re.compile(r"^\s*round (\d+): (.+)$")
ROUND_TRAIN = re.compile(
    r"train reward (-?[\d.]+(?:e-?\d+)?), selection score (-?[\d.]+(?:e-?\d+)?)"
)
ROUND_GAP = re.compile(r"best gap-to-\S+ found by BO = (-?[\d.]+(?:e-?\d+)?)")


def rounds_rows(block):
    """Extract per-curriculum-round progress lines as CSV rows.

    Two shapes appear in bench/CLI output: the curriculum trainers print
    "round N: train reward X, selection score Y", and the baseline-choice
    probe prints "round N: best gap-to-<baseline> found by BO = Z". Both land
    in one <slug>_rounds.csv with empty cells for the columns a line lacks,
    so gap/selection-score trajectories can be plotted without re-running.
    """
    rows = []
    for line in block:
        match = ROUND_LINE.match(line)
        if not match:
            continue
        rnd, rest = match.group(1), match.group(2)
        train = ROUND_TRAIN.search(rest)
        if train:
            rows.append([rnd, train.group(1), train.group(2), ""])
            continue
        gap = ROUND_GAP.search(rest)
        if gap:
            rows.append([rnd, "", "", gap.group(1)])
    if rows:
        rows.insert(0, ["round", "train_reward", "selection_score", "bo_gap"])
    return rows


METRICS_HEADER = re.compile(r"^metric\s+kind\s+count\s+value\s+p50\s+p90\s+p99\s+max$")
METRICS_COLUMNS = ["metric", "kind", "count", "value", "p50", "p90", "p99", "max"]
METRIC_KINDS = {"counter", "gauge", "histogram"}


def metrics_rows(block):
    """Extract an embedded metrics table (the `--metrics-out -` dump) as CSV
    rows, histogram percentile fields included; returns (rows, other_lines).

    Metric names never contain spaces, so rows split on single whitespace:
    counters/gauges have (name, kind, value), histograms all eight columns.
    """
    rows = []
    rest = []
    in_table = False
    for line in block:
        stripped = line.strip()
        if METRICS_HEADER.match(stripped):
            in_table = True
            rows.append(METRICS_COLUMNS)
            continue
        if in_table:
            cells = stripped.split()
            if len(cells) >= 3 and cells[1] in METRIC_KINDS:
                kind = cells[1]
                if kind in ("counter", "gauge"):
                    rows.append([cells[0], kind, "", cells[2], "", "", "", ""])
                else:
                    rows.append(cells[:8])
                continue
            in_table = False
        rest.append(line)
    return rows, rest


def write_csv(path, columns, rows):
    with open(path, "w", encoding="utf-8") as out:
        out.write(",".join(columns) + "\n")
        for row in rows:
            out.write(",".join(str(row.get(c, "")) for c in columns) + "\n")


def fleet_to_csv(doc, stem, out_dir):
    """Flatten a "bench": "fleet" report into scenario/metric/SLO CSVs.

    The scenarios rows keep only scalar fields (the nested metrics/slos
    lists would otherwise be stringified into unusable cells); the metric
    and SLO tables get one row per scenario x entry with the scenario name
    as the join key.
    """
    scenarios = doc.get("scenarios") or []
    scenario_rows = []
    metric_rows = []
    slo_rows = []
    for sc in scenarios:
        scenario_rows.append(
            {k: v for k, v in sc.items() if not isinstance(v, (list, dict))}
        )
        for m in sc.get("metrics") or []:
            metric_rows.append({"scenario": sc.get("name", ""), **m})
        for s in sc.get("slos") or []:
            slo_rows.append({"scenario": sc.get("name", ""), **s})
    count = 0
    for section, rows in (
        ("scenarios", scenario_rows),
        ("metrics", metric_rows),
        ("slos", slo_rows),
    ):
        if not rows:
            continue
        write_csv(
            os.path.join(out_dir, f"{stem}_{section}.csv"),
            list(rows[0].keys()),
            rows,
        )
        count += 1
    return count


def serve_to_csv(doc, stem, out_dir):
    """Flatten a "bench": "serve" report into summary + per-phase CSVs.

    The phase table is the plot-ready form of the serve.phase.* histograms:
    one row per phase so a stacked latency-attribution bar falls out of a
    single groupby.
    """
    count = 0
    summary = {
        k: v for k, v in doc.items() if not isinstance(v, (list, dict))
    }
    for key, value in (doc.get("latency_ms") or {}).items():
        summary[f"latency_{key}_ms"] = value
    write_csv(
        os.path.join(out_dir, f"{stem}_summary.csv"),
        list(summary.keys()),
        [summary],
    )
    count += 1
    phase_rows = [
        {"phase": name, **vals}
        for name, vals in (doc.get("phases") or {}).items()
        if isinstance(vals, dict)
    ]
    if phase_rows:
        write_csv(
            os.path.join(out_dir, f"{stem}_phases.csv"),
            list(phase_rows[0].keys()),
            phase_rows,
        )
        count += 1
    return count


def json_sections_to_csv(src, out_dir):
    """Write one CSV per top-level list-of-objects section of a JSON report.

    Column order follows the first row's keys; rows missing a key get an
    empty cell. The file stem (e.g. "bench_throughput" for
    BENCH_throughput.json) prefixes each CSV name.
    """
    with open(src, encoding="utf-8") as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict):
        print(f"{src}: top level is not a JSON object", file=sys.stderr)
        return None
    stem = slugify(os.path.splitext(os.path.basename(src))[0])
    if doc.get("bench") == "fleet":
        return fleet_to_csv(doc, stem, out_dir)
    if doc.get("bench") == "serve":
        return serve_to_csv(doc, stem, out_dir)
    count = 0
    for section, rows in doc.items():
        if not isinstance(rows, list) or not rows:
            continue
        if not all(isinstance(r, dict) for r in rows):
            continue
        columns = list(rows[0].keys())
        write_csv(os.path.join(out_dir, f"{stem}_{slugify(section)}.csv"),
                  columns, rows)
        count += 1
    return count


def main() -> int:
    src = sys.argv[1] if len(sys.argv) > 1 else "bench_output.txt"
    out_dir = sys.argv[2] if len(sys.argv) > 2 else "bench_csv"
    if src.endswith(".json"):
        os.makedirs(out_dir, exist_ok=True)
        count = json_sections_to_csv(src, out_dir)
        if count is None:
            return 1
        print(f"wrote {count} CSV files to {out_dir}/")
        return 0
    with open(src, encoding="utf-8") as handle:
        lines = handle.readlines()
    os.makedirs(out_dir, exist_ok=True)
    count = 0
    for title, block in split_experiments(lines):
        mrows, block = metrics_rows(block)
        if len(mrows) > 1:
            path = os.path.join(out_dir, slugify(title) + "_metrics.csv")
            with open(path, "w", encoding="utf-8") as out:
                for cells in mrows:
                    out.write(",".join(cells) + "\n")
            count += 1
        rrows = rounds_rows(block)
        if rrows:
            path = os.path.join(out_dir, slugify(title) + "_rounds.csv")
            with open(path, "w", encoding="utf-8") as out:
                for cells in rrows:
                    out.write(",".join(cells) + "\n")
            count += 1
        rows = table_rows(block)
        if not rows:
            continue
        path = os.path.join(out_dir, slugify(title) + ".csv")
        with open(path, "w", encoding="utf-8") as out:
            for cells in rows:
                out.write(",".join(c.replace(",", ";") for c in cells) + "\n")
        count += 1
    print(f"wrote {count} CSV files to {out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
