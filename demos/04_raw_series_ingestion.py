"""From raw daily prices to a labeled training table.

Builds a small synthetic price file covering six trading days (one of them
missing a quote), runs it through the ingestion pipeline, and prints how each
emitted sample was derived: percent changes between the two days preceding
the labeled day, labeled by that day's open-to-close direction.
"""
import tempfile
from pathlib import Path

from setcast import dataset as ds

RAW = """\
DATE,NK,HS,SET_CLOSE,SET_OPEN,USDTHB,SP500,GOLD
2010-01-04,10545,21823,733.25,731.50,33.25,1132.98,1117.70
2010-01-05,10681,22280,741.33,733.50,33.20,1136.52,1118.10
2010-01-06,10731,22416,742.54,741.50,33.15,1137.14,1135.90
2010-01-07,10681,22270,,743.00,33.10,1141.69,1133.10
2010-01-08,10798,22297,747.01,744.00,33.05,1144.98,1136.80
2010-01-11,10879,22412,749.85,751.00,33.00,1146.98,1152.60
"""

with tempfile.TemporaryDirectory() as tmp:
    raw_path = Path(tmp) / "prices.csv"
    raw_path.write_text(RAW)
    series = ds.load_raw_series(raw_path)
    complete = [i for i, row in enumerate(series.values)
                if not any(v != v for v in row)]  # NaN marks a missing quote
    print(f"loaded {len(series.dates)} trading days; "
          f"{len(series.dates) - len(complete)} dropped for missing quotes:")
    for i, date in enumerate(series.dates):
        tag = "" if i in complete else "   <- dropped (missing SET close)"
        print(f"  {date}{tag}")

    table = ds.build_training_table(series)
    out_path = Path(tmp) / "samples.csv"
    ds.save_samples(table, out_path)
    print(f"\nemitted {len(table)} labeled samples "
          f"(each needs two prior complete days):\n")
    print(f"{'':>2s}" + "".join(f"{a:>10s}" for a in ds.ATTRIBUTE_NAMES)
          + f"{'label':>8s}")
    for i, (row, c) in enumerate(zip(table.features, table.y)):
        print(f"{i:2d}" + "".join(f"{v:10.4f}" for v in row) + f"{ds.CLASS_LABELS[c]:>8s}")

    print("\nfeatures are percent changes day t-2 -> t-1; the label compares")
    print("day t's open to its close (a tie counts as DOWN).")
    print("\nwritten sample file:\n")
    print(out_path.read_text())
