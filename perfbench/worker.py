"""One workload process: run a jointprior study through its command line.

    python3 perfbench/worker.py --root DIR --t0 T --record FILE [--trace]
        [--probe] -- <jointprior command-line arguments>

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process, so set-up time counts interpreter start and imports.  The worker
installs the stage probes (and, with ``--trace``, the layer spans), calls
``jointprior.cli.main`` and writes what it observed to ``--record`` as JSON.
``--probe`` stops the study when its first chain is about to start, after
set-up and the pre-chain stage.  The exit code is the command line's own.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import sys
from pathlib import Path


class ProbeDone(BaseException):
    """Raised where a probe's first chain would start; derives from
    BaseException so no handler inside the study swallows it."""


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines()
            if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--record", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    sys.path.insert(0, str(args.root / "src"))
    import jointprior.cli
    from tracing import Tracer, install_layers, install_stages

    tracer = Tracer()
    if args.trace:
        install_layers(tracer)
    if args.probe:
        from jointprior.experiments import cokrige, darcy

        def stop(*args, **kwargs):
            raise ProbeDone

        for study in (cokrige, darcy):
            study._run_single_chain = stop
    install_stages(tracer)

    try:
        code = jointprior.cli.main(cli_args)
    except ProbeDone:
        code = 0
    record = {
        "module_file": jointprior.__file__,
        "blas_threads": blas_threads(),
        "marks": {k: v - args.t0 for k, v in tracer.marks.items()},
        "chains": tracer.chains,
        "trace": tracer.snapshot() if args.trace else None,
    }
    args.record.write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main())
