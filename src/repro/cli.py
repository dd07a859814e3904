"""The ``repro`` console entry point.

Subcommands:

``repro serve``
    Run the long-lived simulation service daemon (see
    :mod:`repro.service.server` and ``docs/service.md``).  All arguments
    after ``serve`` are forwarded to the daemon's own parser::

        repro serve --workers 8 --cache ~/.cache/repro-results --port 7421

``repro status ADDR[,ADDR...]``
    Probe each service endpoint and print one health row per daemon
    (reachability, protocol, uptime, queue depth, pool generation, memo
    size).  Exits nonzero when any endpoint is unreachable, so scripts can
    gate on fleet health.

``repro version``
    Print package version, protocol version and code fingerprint — the
    fingerprint is the content hash that keys every cached result, so two
    checkouts printing the same value share caches.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional


def main(argv: Optional[list[str]] = None) -> int:
    arguments = list(sys.argv[1:] if argv is None else argv)
    # Forward everything after `serve` verbatim to the daemon's own parser
    # (argparse.REMAINDER cannot: it refuses leading options like --help).
    if arguments and arguments[0] == "serve":
        from .service.server import main as serve_main

        return serve_main(arguments[1:])

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Programmable-prefetcher reproduction toolkit.",
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("serve", help="run the simulation service daemon (repro serve --help)")
    status = sub.add_parser(
        "status", help="probe service endpoint health (repro status ADDR[,ADDR...])"
    )
    status.add_argument(
        "endpoints",
        metavar="ADDR[,ADDR...]",
        help="comma-separated service endpoints (host:port or unix:/path)",
    )
    status.add_argument(
        "--timeout",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="per-endpoint probe timeout (default: %(default)s)",
    )
    sub.add_parser("version", help="print version and code fingerprint")

    args = parser.parse_args(arguments)
    if args.command == "status":
        return status_main(args.endpoints, timeout=args.timeout)
    if args.command == "version":
        from . import __version__
        from .service.protocol import PROTOCOL_VERSION
        from .sim.engine.request import code_fingerprint

        print(f"repro {__version__}")
        print(f"service protocol {PROTOCOL_VERSION}")
        print(f"code fingerprint {code_fingerprint()}")
        return 0
    parser.print_help()
    return 2


def status_main(spec: str, *, timeout: float = 5.0) -> int:
    """Probe ``spec`` endpoints, print the health table, return exit code."""

    from .errors import ServiceError
    from .service import format_health_table, parse_endpoints, probe_endpoints

    try:
        endpoints = parse_endpoints(spec)
    except ServiceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    reports = probe_endpoints(endpoints, timeout=timeout)
    print(format_health_table(reports))
    return 0 if all(report.ok for report in reports) else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
