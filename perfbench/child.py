"""One fresh floerlab process, started by run.py for every timed repeat.

    python perfbench/child.py --stats STATS [--trace SPANS] [--setup-only]
        KIND --config CFG --out OUT

KIND is a floerlab subcommand (`verify`, `sweep`), run through
`floerlab.cli.main` exactly as the `floerlab` entry point runs it, or
`atlas` (see workloads.py).  STATS receives a JSON object with the
perf_counter reading taken once `floerlab.cli` is imported and the
config is loaded (the end of set-up; CLOCK_MONOTONIC on Linux, so the
parent can subtract its own spawn reading), and the exit code; a
--setup-only child also records the library versions.  With --trace
the hooked functions are wrapped first and their spans are written to
SPANS as JSONL when the run ends.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time


def _versions() -> dict:
    import numpy
    import sympy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sympy": sympy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version") if k in blas},
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--stats", required=True)
    parser.add_argument("--trace")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("kind", choices=("verify", "sweep", "atlas"))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)

    from floerlab import cli

    try:
        cfg = cli.RunConfig.load(args.config)
    except (cli.ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    stats = {"setup_done": time.perf_counter()}

    code = 0
    if args.setup_only:
        stats["versions"] = _versions()
    else:
        if args.kind == "atlas":
            from workloads import run_atlas

            code = run_atlas(cfg, args.out)
        else:
            code = cli.main([args.kind, "--config", args.config, "--out", args.out])
        if tracer is not None:
            tracer.write(args.trace)
    stats["exit_code"] = code
    with open(args.stats, "w", encoding="utf-8") as fh:
        json.dump(stats, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
