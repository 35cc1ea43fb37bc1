"""Record the committed bench gates into BENCH_<name>.json.

Run from the repo root::

    PYTHONPATH=src python benchmarks/record.py [--repeats N] [--out-dir DIR]
        [--only NAME ...]

Measures every gate of ``repro.bench.GATES`` in table order (or only
the ones ``--only`` names) and writes each as ``DIR/BENCH_<name>.json``
(default DIR: the repo root):

* ``ingest`` — the in-process three-engine group ingest (fig4's body)
  through the vectorized batch path and the scalar reference path, plus
  the end-to-end ``python -m repro fig4 --scale small`` command both
  ways (which adds the fixed interpreter + numpy start-up floor that no
  ingest optimization can touch),
* ``restore`` — the fig6-small all-generation restore from the
  DDFS-Like layout through the default reader and the FAA + read-ahead
  reader,
* ``chunking`` — byte-level Gear CDC over a fixed random buffer, the
  narrow-lane default path vs the exact 64-pass reference sweep,
* ``shard`` — 1-shard byte-identity plus routed N-shard batched-lookup
  throughput, including the absolute lookup floor the gate enforces,
* ``memory`` — only when named: a full xlarge out-of-core run in a
  fresh subprocess; the committed budget becomes the measured peak
  plus headroom (slow: minutes).

The JSON it writes is the committed baseline that ``python -m repro
bench`` gates wall-clock regressions against. With ``--append-history``
it additionally appends one compact line of headline numbers (plus the
run's provenance manifest) to ``BENCH_history.jsonl`` — the perf
trajectory ``repro dash`` plots and ``repro bench`` annotates with a
drift direction.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench import (  # noqa: E402
    GATES,
    HISTORY_FILENAME,
    append_history,
    history_record,
)


def time_command(args, repeats: int, src: "Path | None" = None) -> float:
    """Best-of wall-clock seconds for a subprocess command."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        subprocess.run(
            args,
            check=True,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            cwd=REPO_ROOT,
            env={
                "PYTHONPATH": str(src or (REPO_ROOT / "src")),
                "PATH": "/usr/bin:/bin",
            },
        )
        best = min(best, time.perf_counter() - t0)
    return best


# in-process group-workload timing, run inside an arbitrary checkout via
# ``python -c`` (so a pre-change reference tree can be measured in the
# same sitting; it only needs run_group_workload + ExperimentConfig.small)
_WORKLOAD_SNIPPET = (
    "import time\n"
    "from repro.experiments.common import run_group_workload, clear_memo\n"
    "from repro.experiments.config import ExperimentConfig\n"
    "cfg = ExperimentConfig.small()\n"
    "best = float('inf')\n"
    "for _ in range({repeats}):\n"
    "    clear_memo()\n"
    "    t0 = time.perf_counter()\n"
    "    run_group_workload(cfg)\n"
    "    best = min(best, time.perf_counter() - t0)\n"
    "print(best)\n"
)


def reference_commit(src: Path) -> "str | None":
    """Short commit hash of the checkout whose package root is ``src``,
    or None when it isn't a git checkout (the hash — unlike the often
    temporary checkout path — stays meaningful in the committed record)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            check=True,
            capture_output=True,
            text=True,
            cwd=src,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip() or None


def time_workload_in(src: Path, repeats: int) -> float:
    """Best-of in-process group-workload seconds for the checkout whose
    package root is ``src``."""
    out = subprocess.run(
        [sys.executable, "-c", _WORKLOAD_SNIPPET.format(repeats=max(1, repeats))],
        check=True,
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
    )
    return float(out.stdout.strip().splitlines()[-1])


def end_to_end_fields(args) -> dict:
    """The ingest record's end-to-end fig4 command timings ({} with
    ``--skip-end-to-end``)."""
    if args.skip_end_to_end:
        return {}
    cmd = [sys.executable, "-m", "repro", "fig4", "--scale", "small"]
    batch_s = time_command(cmd, args.repeats)
    scalar_s = time_command(cmd + ["--scalar"], args.repeats)
    return {
        "fig4_small_end_to_end": {
            "command": "python -m repro fig4 --scale small [--scalar]",
            "batch_seconds": round(batch_s, 4),
            "scalar_seconds": round(scalar_s, 4),
            "speedup": round(scalar_s / batch_s, 2),
            "note": (
                "end-to-end includes the fixed interpreter + numpy import "
                "floor (~0.2s) that ingest vectorization cannot remove; "
                "the ingest record above isolates the simulation itself"
            ),
        }
    }


def reference_fields(args, record: dict) -> dict:
    """``{"reference": ...}`` timing the ``--reference-src`` checkout
    against the fresh ingest ``record`` ({} without the flag)."""
    if not args.reference_src:
        return {}
    ref_src = Path(args.reference_src).resolve()
    ref = {
        "label": args.reference_label,
        "workload_seconds": round(time_workload_in(ref_src, args.repeats), 4),
    }
    commit = reference_commit(ref_src)
    if commit is not None:
        ref["commit"] = commit
    ref["workload_speedup"] = round(
        ref["workload_seconds"] / record["ingest"]["batch_seconds"], 2
    )
    if "fig4_small_end_to_end" in record:
        cmd = [sys.executable, "-m", "repro", "fig4", "--scale", "small"]
        ref["end_to_end_seconds"] = round(
            time_command(cmd, args.repeats, src=ref_src), 4
        )
        ref["end_to_end_speedup"] = round(
            ref["end_to_end_seconds"]
            / record["fig4_small_end_to_end"]["batch_seconds"],
            2,
        )
    return {"reference": ref}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--out-dir",
        default=str(REPO_ROOT),
        help="directory the BENCH_<name>.json records are written to "
        "(default: the repo root, i.e. the committed baselines)",
    )
    parser.add_argument(
        "--only",
        nargs="+",
        choices=list(GATES),
        default=None,
        metavar="NAME",
        help="record only these gates (default: every gate but the "
        f"opt-in ones; choices: {', '.join(GATES)})",
    )
    parser.add_argument(
        "--skip-end-to-end",
        action="store_true",
        help="ingest: skip the end-to-end fig4 command timings",
    )
    parser.add_argument(
        "--reference-src",
        default=None,
        help="package root (…/src) of another checkout to time in the "
        "same sitting — e.g. a pre-change tree — recorded in the ingest "
        "record under 'reference' with speedups relative to it",
    )
    parser.add_argument(
        "--reference-label",
        default="pre-change reference",
        help="free-form description of the --reference-src checkout",
    )
    parser.add_argument(
        "--append-history",
        action="store_true",
        help="also append one compact line of headline numbers to the "
        "perf-trajectory history (see --history-out)",
    )
    parser.add_argument(
        "--history-out",
        default=str(REPO_ROOT / HISTORY_FILENAME),
        help="history file --append-history grows (default: the "
        "committed BENCH_history.jsonl)",
    )
    args = parser.parse_args(argv)
    if args.only is not None:
        names = [name for name in GATES if name in args.only]
    else:
        names = [name for name, gate in GATES.items() if not gate.opt_in]
    if args.reference_src and "ingest" not in names:
        parser.error("--reference-src times the ingest gate; add it to --only")

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = {}
    recorded_utc = None
    for name in names:
        gate = GATES[name]
        stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
        recorded_utc = recorded_utc or stamp
        results[name] = gate.measure(quick=False, repeats=args.repeats)
        record = {"recorded_utc": stamp, **gate.baseline(results[name])}
        if name == "ingest":
            record.update(end_to_end_fields(args))
            record.update(reference_fields(args, record))
        out = out_dir / gate.filename
        out.write_text(json.dumps(record, indent=2) + "\n")
        print(json.dumps(record, indent=2))
        print(f"\nwrote {out}")

    if args.append_history:
        first = next(iter(results.values()))
        line = history_record(manifest=first.get("manifest"), **results)
        line["recorded_utc"] = recorded_utc
        history_path = append_history(line, Path(args.history_out))
        print(f"appended history line to {history_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
