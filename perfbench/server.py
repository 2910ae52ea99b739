"""Run one ``EquivalenceServer`` in its own process for the service workloads.

Started by :mod:`service` as ``python3 perfbench/server.py --shards N
--store DIR [--trace-dir DIR]``.  It prints one JSON line
``{"port": ..., "pid": ...}`` once the shard workers are forked and the
socket is bound, serves until its standard input closes, then stops the
server, waits for the shard workers to exit and (when traced) writes its
spans.  With ``--trace-dir`` the layer wrappers of :mod:`tracing` are
installed *before* the shard workers fork, so every worker records spans
too and writes them to the same directory when it exits.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import multiprocessing
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER_EXIT_TIMEOUT_S = 20.0


async def serve(args, tracer) -> None:
    from repro.service import EquivalenceServer

    server = EquivalenceServer(port=0, store_root=args.store, num_shards=args.shards)
    await server.start()
    print(json.dumps({"port": server.port, "pid": os.getpid()}), flush=True)
    try:
        await asyncio.get_running_loop().run_in_executor(None, sys.stdin.read)
    finally:
        await server.stop()
        for child in multiprocessing.active_children():
            child.join(WORKER_EXIT_TIMEOUT_S)
        if tracer is not None:
            tracer.flush()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shards", type=int, required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--trace-dir")
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    tracer = None
    if args.trace_dir:
        import tracing

        tracer = tracing.Tracer(args.trace_dir)
        tracing.install(tracer)
    asyncio.run(serve(args, tracer))


if __name__ == "__main__":
    main()
