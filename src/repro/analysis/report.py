"""Markdown emission for EXPERIMENTS.md.

``python -m repro.analysis.report`` regenerates the full
paper-vs-model experiment record (every figure panel, every table, the
anchor verification) as markdown on stdout; the repository's
EXPERIMENTS.md is produced exactly this way, so it can never drift from
the implementation.
"""

from __future__ import annotations

import sys

from repro.analysis.calibration import verify_anchors
from repro.analysis.figures import (
    FIG12_SWEEPS,
    FIG13_SWEEPS,
    figure12_series,
    figure13_series,
    figure14_bars,
)
from repro.analysis.tables import table1_rows, table3_rows

__all__ = ["markdown_table", "trace_markdown", "experiments_markdown", "main"]


def markdown_table(rows: list, columns: list, fmt: dict | None = None) -> str:
    """Render dict rows as a GitHub markdown table.

    ``columns`` is a list of ``(key, header)``; ``fmt`` maps keys to
    format specs (default ``g`` for floats).
    """
    fmt = fmt or {}

    def cell(row, key):
        v = row.get(key)
        if v is None:
            return "—"
        if isinstance(v, float):
            return format(v, fmt.get(key, ".3g"))
        return str(v)

    head = "| " + " | ".join(h for _, h in columns) + " |"
    sep = "|" + "|".join("---" for _ in columns) + "|"
    body = [
        "| " + " | ".join(cell(r, k) for k, _ in columns) + " |" for r in rows
    ]
    return "\n".join([head, sep, *body])


def trace_markdown(trace) -> str:
    """Render one :class:`~repro.backends.trace.SolveTrace` as markdown.

    Used by the CLI's ``--trace`` flag: chosen backend, frozen plan,
    plan-cache outcome, then the per-stage timings — with the gpusim
    device-model prediction in its own column when one exists.
    """
    info = trace.describe()
    lines = [
        f"backend: {info['backend']}"
        + ("  [periodic]" if info.get("periodic") else "")
        + (
            f"  [{info['system']}]"
            if info.get("system", "tridiagonal") != "tridiagonal"
            else ""
        )
        + f"  (M={info['m']}, N={info['n']}, {info['dtype']})",
        f"plan: k={info['k']} ({info['k_source']}), fuse={info['fuse']}, "
        f"windows={info['n_windows']}, "
        + (
            f"ranks={info['ranks']}, "
            if info.get("ranks", 1) and info["ranks"] > 1
            else ""
        )
        + f"plan cache: {info['plan_cache']}",
        f"factorization: {info['factorization']}"
        + ("  (RHS-only fast path)" if info["rhs_only"] else ""),
    ]
    decision = info.get("decision")
    if decision:
        line = f"routing: {decision['router']} -> {decision['chosen']}"
        if decision.get("model") not in (None, "", "n/a"):
            line += f"  [model {decision['model']}]"
        if decision.get("explore"):
            line += "  [explore]"
        if decision.get("reason"):
            line += f"  ({decision['reason']})"
        lines.append(line)
    lines.append("")
    cols = [("name", "stage"), ("ms", "measured (ms)")]
    if any(s["predicted_us"] is not None for s in info["stages"]):
        cols.append(("predicted_us", "predicted (us)"))
    lines.append(
        markdown_table(
            info["stages"], cols, fmt={"ms": ".4f", "predicted_us": ".1f"}
        )
    )
    total = f"total: {info['total_ms']:.4f} ms"
    if info["predicted_total_us"] is not None:
        total += (
            f"  |  device-model prediction: {info['predicted_total_us']:.1f} us"
        )
    lines += ["", total]
    return "\n".join(lines)


def _selection_section() -> str:
    from repro.analysis.selection_map import heuristic_regret, selection_map

    cells = selection_map()
    stats = heuristic_regret(cells)
    rows = [
        {
            "M": c.m,
            "N": c.n,
            "best_k": c.best_k,
            "table3_k": c.heuristic_k,
            "regret": c.regret,
        }
        for c in cells
        if c.n in (1024, 16384)
    ]
    table = markdown_table(
        rows,
        [("M", "M"), ("N", "N"), ("best_k", "model-optimal k"),
         ("table3_k", "Table III k"), ("regret", "regret")],
        fmt={"regret": ".3f"},
    )
    summary = (
        f"Heuristic regret over the full grid: worst {stats['worst']:.2f}, "
        f"median {stats['median']:.2f}, "
        f"{stats['exact_matches'] * 100:.0f} % of cells exactly optimal."
    )
    return table + "\n\n" + summary


def _roofline_section() -> str:
    from repro.analysis.roofline import kernel_survey, ridge_intensity
    from repro.gpusim.device import GTX480

    rows = [
        {
            "kernel": p.name,
            "AI": p.intensity,
            "attainable_gflops": p.attainable_gflops,
            "bound": p.bound,
        }
        for p in kernel_survey()
    ]
    table = markdown_table(
        rows,
        [("kernel", "kernel"), ("AI", "flops/byte"),
         ("attainable_gflops", "attainable GF/s"), ("bound", "bound")],
        fmt={"AI": ".3f", "attainable_gflops": ".1f"},
    )
    return table + f"\n\nfp64 ridge point: {ridge_intensity(GTX480, 8):.2f} flops/byte."


def experiments_markdown() -> str:
    """The full EXPERIMENTS.md body."""
    parts = [
        "# EXPERIMENTS — paper vs. reproduction",
        "",
        "Generated by `python -m repro.analysis.report`.  GPU times are the",
        "calibrated GTX480 execution-model prediction (this environment has no",
        "GPU — see DESIGN.md §2); CPU times are the calibrated i7-975 MKL",
        "proxy.  Numeric correctness of every configuration is established",
        "separately by the test suite on scaled-down instances.",
        "",
        "## Calibration anchors (paper headline numbers)",
        "",
    ]
    anchors = verify_anchors()
    parts.append(
        markdown_table(
            [
                {
                    "name": a.name,
                    "paper": a.paper,
                    "model": a.model,
                    "model/paper": a.ratio,
                    "ok": "yes" if a.ok else "NO",
                }
                for a in anchors.anchors
            ],
            [
                ("name", "anchor"),
                ("paper", "paper"),
                ("model", "model"),
                ("model/paper", "model/paper"),
                ("ok", "within band"),
            ],
        )
    )

    cols12 = [
        ("M", "M"),
        ("mkl_seq_us", "MKL seq (µs)"),
        ("mkl_mt_us", "MKL mt (µs)"),
        ("ours_us", "ours (µs)"),
        ("k", "k"),
        ("windows", "W"),
        ("speedup_seq", "×seq"),
        ("speedup_mt", "×mt"),
    ]
    for n in FIG12_SWEEPS:
        parts += [
            "",
            f"## Figure 12 ({'abc'[list(FIG12_SWEEPS).index(n)]}): N = {n}, "
            "double precision, vary M",
            "",
            markdown_table(figure12_series(n), cols12),
        ]

    cols13 = [
        ("N", "N"),
        ("mkl_seq_ms", "MKL seq (ms)"),
        ("mkl_mt_ms", "MKL mt (ms)"),
        ("ours_ms", "ours (ms)"),
        ("k", "k"),
        ("windows", "W"),
        ("pcr_fraction", "PCR share"),
        ("speedup_seq", "×seq"),
        ("speedup_mt", "×mt"),
    ]
    for m in FIG13_SWEEPS:
        parts += [
            "",
            f"## Figure 13 ({'abcd'[list(FIG13_SWEEPS).index(m)]}): M = {m}, "
            "double precision, vary N",
            "",
            markdown_table(figure13_series(m), cols13),
        ]

    cols14 = [
        ("config", "config"),
        ("ours_ms", "ours (ms)"),
        ("paper_ours_ms", "paper ours"),
        ("davidson_ms", "Davidson (ms)"),
        ("paper_davidson_ms", "paper Davidson"),
        ("ratio", "ratio"),
        ("paper_ratio", "paper ratio"),
    ]
    parts += [
        "",
        "## Figure 14(a): ours vs Davidson et al., double precision",
        "",
        markdown_table(figure14_bars(8), cols14),
        "",
        "## Figure 14(b): ours vs Davidson et al., single precision",
        "",
        markdown_table(
            figure14_bars(4),
            cols14 + [("davidson_reported_ms", "Davidson reported")],
        ),
    ]

    parts += [
        "",
        "## Table I: buffered sliding window properties (c = 1)",
        "",
        markdown_table(
            table1_rows(),
            [
                ("k", "k"),
                ("subtile", "sub-tile 2^k"),
                ("cache_capacity", "cache 3·f(k)"),
                ("cache_bound_3x2k", "bound 3·2^k"),
                ("threads_per_block", "threads"),
                ("elim_per_subtile", "elim/sub-tile"),
                ("smem_bytes_fp64", "smem bytes (fp64)"),
            ],
        ),
        "",
        "## Table III: transition heuristic (GTX480)",
        "",
        markdown_table(
            table3_rows(),
            [
                ("m_low", "M ≥"),
                ("m_high", "M <"),
                ("k", "k"),
                ("tile", "tile 2^k"),
            ],
        ),
        "",
        "## Extension: algorithm-selection surface (model optimum vs Table III)",
        "",
        _selection_section(),
        "",
        "## Extension: roofline survey (M=256, N=16384, k=6, fp64)",
        "",
        _roofline_section(),
        "",
        "## Known divergences",
        "",
        "* **Tiled-PCR runtime share (Fig. 13 text).**  The paper quotes the",
        "  tiled-PCR portion of total execution time as 6.25 % (M=256),",
        "  36.2 % (M=16) and ≈55 % (M=1).  Our model reports the share of the",
        "  *unfused* two-kernel pipeline, where the PCR stage carries its own",
        "  full load/store traffic — that attribution yields larger shares at",
        "  M=256/16 (≈60 %) and a smaller one at M=1 (≈25 %).  The qualitative",
        "  claim preserved (and asserted in the benchmarks): the share is 0",
        "  above the M=1024 transition and substantial (>10 %) below it.",
        "* **Fig. 13(a) speedups at M=2048.**  The paper reports up to 5×/30×",
        "  (mt/seq) for this panel; the calibrated model gives ≈8.6×/48× —",
        "  i.e. the same ratios as the N=512 panel, because the linear",
        "  CPU model has no N-dependence in its per-row cost.  Within the",
        "  'rough factor' band but noted.",
        "* **Fig. 14 smallest configuration (1K×1K).**  Both bars come out",
        "  ≈2× faster than the paper's absolute milliseconds (the model",
        "  under-prices fixed per-launch overheads that dominate small",
        "  problems); the ours-vs-Davidson *ratio* (1.7× vs paper 2.3×)",
        "  is within its band.",
    ]
    return "\n".join(parts) + "\n"


def main() -> int:
    """CLI entry point: print EXPERIMENTS.md body to stdout."""
    sys.stdout.write(experiments_markdown())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
