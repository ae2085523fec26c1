"""Rebuild the reference figure tables the figures workload is checked
against: ``reference/<figure>.csv.gz``, the default-grid CSV output of
``capdetect reproduce``.

Run from the repository root at the commit the benchmark was defined on
(the stored tables were made that way):

    python3 perfbench/make_reference.py
"""

import gzip
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import FIGURES  # noqa: E402
from worker import import_program  # noqa: E402


def main():
    cli = import_program()["cli"]
    out_dir = HERE / "reference"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for fig in FIGURES:
            path = Path(tmp) / f"{fig}.csv"
            if cli.main(["reproduce", fig, "--out", str(path)]) != 0:
                raise SystemExit(f"reproduce {fig} failed")
            # mtime 0 keeps the compressed bytes reproducible
            with open(out_dir / f"{fig}.csv.gz", "wb") as raw:
                with gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0) as gz:
                    gz.write(path.read_bytes())


if __name__ == "__main__":
    main()
