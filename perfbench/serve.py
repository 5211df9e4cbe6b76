"""Start `stripehouse serve` from a source tree, optionally traced.

    python3 -u perfbench/serve.py --src src --config service.json [--trace-out spans.json]

It prints the server's address line when it listens. On SIGINT it stops
and, when traced, writes its spans.
"""

from __future__ import annotations

import argparse
import sys


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args()
    sys.path.insert(0, args.src)

    tracer = None
    if args.trace_out:
        import spans
        from workload import classify

        tracer = spans.Tracer()
        spans.install(tracer, classify)
    from stripehouse import cli

    try:
        return cli.main(["serve", "--config", args.config])
    finally:
        if tracer is not None:
            tracer.dump(args.trace_out)


if __name__ == "__main__":
    sys.exit(main())
