"""Workload inputs and command sequences.

Every input is generated from the workload seed; the program under test only
ever sees the generated files.  Each workload is a list of CLI invocations
(one pass), run one at a time in a closed loop.

svm-cv          ~1,000 samples with a weak class signal (accuracy ~0.7).
                compare (NB + RBF SVM) and a linear cv (C=0.1) put SMO and
                the dense kernel matrix at the centre of the pass.
large-pipeline  A ~10k-day random walk with empty cells.  Reads, writes,
                per-row prediction and evaluation at scale, with one small
                SMO fit; item-by-item array work is judged here.
bundled         The packaged 30-sample fixture plus a ~40-day raw series.
                Every command runs on almost no data, so interpreter start-up
                and imports dominate; SMO and per-row costs are bypassed.
                Not in BENCHMARK.json: start-up is measured by setup_s on
                every workload, and the self-test runs this one.

The SVM settings keep the SMO cost steady across seeds.  Over 12 seeds at
n = 1,000, the 10-fold iteration count has an interquartile range of 3% of
its median for RBF (delta^2 = 1) and 10% for linear at C = 0.1, against 16%
for linear at C = 1.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

NAMES = ("bundled", "svm-cv", "large-pipeline")

RAW_HEADER = "DATE,NK,HS,SET_CLOSE,SET_OPEN,USDTHB,SP500,GOLD"
# Start prices and daily volatility (percent) of NK, HS, SET_CLOSE, USDTHB,
# SP500, GOLD -- the six feature series, in sample-column order.
START = np.array([15000.0, 20000.0, 1400.0, 33.0, 2000.0, 1200.0])
VOL = np.array([1.2, 1.3, 1.0, 0.3, 1.1, 0.8])

FULL = {"bundled_days": 40, "svm_samples": 1000, "large_days": 10000, "large_svm_rows": 1000}
TINY = {"bundled_days": 12, "svm_samples": 60, "large_days": 300, "large_svm_rows": 60}


@dataclass(frozen=True)
class Op:
    """One CLI invocation; ``prepare`` runs untimed right before it."""

    argv: tuple
    prepare: Optional[Callable[[], None]] = None

    @property
    def command(self) -> str:
        return self.argv[0]


def _date(day: int) -> str:
    return str(np.datetime64("1990-01-01") + np.timedelta64(day, "D"))


def random_walk_series(path: Path, rng, days: int, missing_rate: float) -> None:
    """Log-normal random walk of all seven raw columns, with empty cells."""
    closes = START * np.exp(np.cumsum(rng.standard_normal((days, 6)) * VOL / 100.0, axis=0))
    gap = rng.standard_normal(days) * 0.005
    set_open = np.concatenate(([closes[0, 2]], closes[:-1, 2])) * np.exp(gap)
    missing = rng.random((days, 7)) < missing_rate
    lines = [RAW_HEADER]
    for t in range(days):
        nk, hs, set_close, usdthb, sp500, gold = (f"{v:.4f}" for v in closes[t])
        cells = [nk, hs, set_close, f"{set_open[t]:.4f}", usdthb, sp500, gold]
        cells = ["" if m else c for c, m in zip(cells, missing[t])]
        lines.append(",".join([_date(t)] + cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def signal_samples(path: Path, rng, n: int, shift: float = 0.25) -> None:
    """n labeled Gaussian percent-change samples whose class means differ
    slightly, so a classifier scores ~0.6-0.7 as on the bundled fixture."""
    up = rng.random(n) < 0.5
    direction = np.array([1.0, 1.0, 1.0, -1.0, 1.0, 0.5])
    features = (rng.standard_normal((n, 6)) + np.where(up, shift, -shift)[:, None] * direction) * VOL
    lines = ["NK,HS,SET,USDTHB,SP500,GOLD,SET_DIRECTION"]
    for x, is_up in zip(features, up):
        lines.append(",".join(f"{v:.4f}" for v in x) + (",UP" if is_up else ",DOWN"))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_head(src: Path, dst: Path, rows: int) -> None:
    """Copy the header and the first ``rows`` samples of a sample CSV."""
    with open(src, encoding="utf-8") as fh:
        lines = [line for _, line in zip(range(rows + 1), fh)]
    dst.write_text("".join(lines), encoding="utf-8")


def build(name: str, seed: int, work: Path, sizes=FULL) -> list:
    """Write the workload's inputs under ``work`` and return one pass of ops."""
    rng = np.random.default_rng([seed, NAMES.index(name)])
    raw = work / "raw.csv"
    out = lambda f: str(work / f)  # noqa: E731
    if name == "bundled":
        random_walk_series(raw, rng, sizes["bundled_days"], missing_rate=0.01)
        return [
            Op(("ingest", "--data", str(raw), "--output", out("ingested.csv"))),
            Op(("train", "--model", "nb", "--output", out("nb.model"))),
            Op(("train", "--model", "svm", "--kernel", "linear", "--output", out("svm.model"))),
            Op(("predict", "--model-file", out("nb.model"), "--output", out("pred_nb.csv"))),
            Op(("predict", "--model-file", out("svm.model"), "--output", out("pred_svm.csv"))),
            Op(("cv", "--model", "nb", "--format", "machine", "--output", out("cv_nb.txt"))),
            Op(("cv", "--model", "svm", "--kernel", "linear", "--format", "machine",
                "--output", out("cv_svm.txt"))),
            Op(("compare", "--output", out("compare.txt"))),
        ]
    samples = out("samples.csv")
    rbf = ("--kernel", "rbf", "--delta-sq", "1")
    if name == "svm-cv":
        signal_samples(Path(samples), rng, sizes["svm_samples"])
        return [
            Op(("compare", *rbf, "--data", samples, "--format", "machine",
                "--output", out("compare.txt"))),
            Op(("cv", "--model", "svm", "--kernel", "linear", "--cost", "0.1", "--data", samples,
                "--format", "machine", "--output", out("cv_linear.txt"))),
        ]
    if name == "large-pipeline":
        random_walk_series(raw, rng, sizes["large_days"], missing_rate=0.01)
        head = work / "head.csv"
        return [
            Op(("ingest", "--data", str(raw), "--output", samples)),
            Op(("train", "--model", "nb", "--data", samples, "--output", out("nb.model"))),
            Op(("predict", "--model-file", out("nb.model"), "--data", samples,
                "--output", out("pred_nb.csv"))),
            Op(("train", "--model", "svm", *rbf, "--data", str(head), "--output", out("rbf.model")),
               prepare=lambda: write_head(Path(samples), head, sizes["large_svm_rows"])),
            Op(("predict", "--model-file", out("rbf.model"), "--data", samples,
                "--output", out("pred_rbf.csv"))),
            Op(("cv", "--model", "nb", "--data", samples, "--format", "machine",
                "--output", out("cv_nb.txt"))),
        ]
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
