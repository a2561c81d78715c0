"""CLI for the streaming admission service.

Usage::

    # Sustained-throughput benchmark, manifest to BENCH_service.json:
    python -m repro.service loadgen --arrivals 500000 --rate 32 \
        --bench BENCH_service.json

    # Journaled + checkpointed run, killed mid-flight:
    python -m repro.service loadgen --arrivals 50000 --rate 16 \
        --journal run.jsonl --checkpoint run.ckpt \
        --checkpoint-every 200 --kill-at-slot 1500

    # Resume the killed run from its checkpoint:
    python -m repro.service resume --checkpoint run.ckpt

    # Byte-identity gate against an uninterrupted baseline:
    python -m repro.experiments trace-diff baseline.jsonl run.jsonl

    # Scrapeable run + live terminal console from another shell:
    python -m repro.service loadgen --arrivals 500000 --rate 32 \
        --metrics-port 9178
    python -m repro.service watch --url http://127.0.0.1:9178
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .console import run_status, run_watch
from .loadgen import run_loadgen, run_resume


def _add_profile_flags(sub: argparse.ArgumentParser) -> None:
    """Attach the shared ``--profile*`` knobs to a drive subcommand."""
    sub.add_argument("--profile", action="store_true",
                     help="capture a span-attribution digest + cProfile "
                          "stats for the serve loop (digest lands in the "
                          "summary and the bench manifest's profiles)")
    sub.add_argument("--profile-out", default=None, metavar="PATH",
                     help="write collapsed stacks (flamegraph.pl / "
                          "speedscope loadable) here; implies --profile")
    sub.add_argument("--profile-mem", action="store_true",
                     help="trace allocations with tracemalloc: the serve "
                          "loop publishes service_alloc_{current,peak}_kb "
                          "gauges and the summary gains top allocation "
                          "sites")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Long-lived streaming admission service: load "
                    "generation, checkpointing, and crash/resume.")
    sub = parser.add_subparsers(dest="command", required=True)

    load = sub.add_parser(
        "loadgen",
        help="replay a synthetic Poisson arrival stream and report "
             "throughput/latency/RSS")
    load.add_argument("--arrivals", type=int, default=50_000,
                      help="total requests to generate (default 50000)")
    load.add_argument("--rate", type=float, default=8.0,
                      help="mean arrivals per slot (default 8)")
    load.add_argument("--policy", default="greedy",
                      choices=("greedy", "dynamicrr", "random"),
                      help="admission policy (default greedy)")
    load.add_argument("--seed", type=int, default=0,
                      help="root seed (default 0)")
    load.add_argument("--queue-limit", type=int, default=256,
                      help="pending-queue bound; overflow is SHED "
                           "(default 256)")
    load.add_argument("--journal", default=None, metavar="PATH",
                      help="stream the decision journal to this JSONL "
                           "file")
    load.add_argument("--flush-every", type=int, default=1024,
                      help="journal flush chunk in events (default "
                           "1024; any value yields identical bytes)")
    load.add_argument("--checkpoint", default=None, metavar="PATH",
                      help="write checkpoints to this file (needs "
                           "--checkpoint-every)")
    load.add_argument("--checkpoint-every", type=int, default=None,
                      metavar="SLOTS",
                      help="checkpoint cadence in slots")
    load.add_argument("--kill-at-slot", type=int, default=None,
                      metavar="SLOT",
                      help="simulate a crash after this slot (nothing "
                           "flushed or finalized)")
    load.add_argument("--bench", default=None, metavar="PATH",
                      help="write a BENCH_<name>.json run manifest")
    load.add_argument("--name", default="service",
                      help="manifest name (default 'service')")
    load.add_argument("--metrics-port", type=int, default=None,
                      metavar="PORT",
                      help="serve /metrics, /healthz, /readyz on this "
                           "port while the run drains (0 = pick a free "
                           "port, printed to stderr)")
    _add_profile_flags(load)

    res = sub.add_parser(
        "resume",
        help="restore a killed service from its checkpoint and run it "
             "to drain")
    res.add_argument("--checkpoint", required=True, metavar="PATH",
                     help="checkpoint file written by a loadgen run")
    res.add_argument("--bench", default=None, metavar="PATH",
                     help="write a BENCH_<name>.json run manifest")
    res.add_argument("--name", default="service",
                     help="manifest name (default 'service')")
    res.add_argument("--metrics-port", type=int, default=None,
                     metavar="PORT",
                     help="serve the scrape endpoint while draining")
    _add_profile_flags(res)

    stat = sub.add_parser(
        "status",
        help="print one ops-console frame scraped from a running "
             "service's endpoint")
    stat.add_argument("--url", default="http://127.0.0.1:9178",
                      help="endpoint base URL (default "
                           "http://127.0.0.1:9178)")
    stat.add_argument("--timeout", type=float, default=5.0,
                      help="scrape timeout in seconds (default 5)")

    watch = sub.add_parser(
        "watch",
        help="poll the endpoint and redraw the ops console, "
             "top(1)-style")
    watch.add_argument("--url", default="http://127.0.0.1:9178",
                       help="endpoint base URL (default "
                            "http://127.0.0.1:9178)")
    watch.add_argument("--interval", type=float, default=2.0,
                       help="poll interval in seconds (default 2)")
    watch.add_argument("--iterations", type=int, default=None,
                       help="stop after this many frames (default: "
                            "until Ctrl-C or the service drains)")
    watch.add_argument("--timeout", type=float, default=5.0,
                       help="scrape timeout in seconds (default 5)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "status":
        return run_status(args.url, timeout=args.timeout)
    if args.command == "watch":
        return run_watch(args.url, interval=args.interval,
                         iterations=args.iterations,
                         timeout=args.timeout)
    if args.command == "loadgen":
        summary = run_loadgen(
            arrivals=args.arrivals, rate=args.rate, policy=args.policy,
            seed=args.seed, queue_limit=args.queue_limit,
            journal_path=args.journal,
            checkpoint_path=args.checkpoint,
            checkpoint_every=args.checkpoint_every,
            flush_every=args.flush_every,
            kill_at_slot=args.kill_at_slot,
            bench_path=args.bench, name=args.name,
            metrics_port=args.metrics_port,
            profile=args.profile, profile_out=args.profile_out,
            profile_mem=args.profile_mem)
    else:
        summary = run_resume(args.checkpoint, bench_path=args.bench,
                             name=args.name,
                             metrics_port=args.metrics_port,
                             profile=args.profile,
                             profile_out=args.profile_out,
                             profile_mem=args.profile_mem)
    print(json.dumps(summary, sort_keys=True, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
