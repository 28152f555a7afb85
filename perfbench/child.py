"""One benchmark iteration in a fresh process: import qborel, load the config,
run the workload's verbs through `qborel.cli.run`, report timings.  With an
empty verb list the process only sets up, which is how set-up time is probed.

    python3 perfbench/child.py --config C --verbs all --out DIR --result R.json
        --t0 <parent time.monotonic() just before spawning> [--trace T.jsonl]

The parent puts `src` on PYTHONPATH and pins the BLAS thread count.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", required=True)
    ap.add_argument("--verbs", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace")
    ap.add_argument("--run-id", default="")
    args = ap.parse_args()

    import qborel.cli as cli

    # set-up is import plus one config load; `run` loads the config again
    # per verb, which takes milliseconds and counts towards wall_s
    cli.load_config(args.config, args.out)
    # time.monotonic is CLOCK_MONOTONIC, shared with the parent process
    setup_s = time.monotonic() - args.t0

    tracer = None
    if args.trace:
        from tracer import Tracer  # perfbench/ is sys.path[0]

        tracer = Tracer(args.run_id)
        tracer.install()

    codes = []
    start = time.perf_counter()
    for verb in filter(None, args.verbs.split(",")):
        codes.append(cli.run(verb, args.config, args.out))
        if codes[-1] != 0:
            break
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.dump(args.trace)
    with open(args.result, "w") as fh:
        json.dump({"setup_s": setup_s, "wall_s": wall_s,
                   "peak_rss_mb": peak_rss_mb, "codes": codes}, fh)
    return 0 if all(c == 0 for c in codes) else 1


if __name__ == "__main__":
    sys.exit(main())
