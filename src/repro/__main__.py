"""Command-line entry point: ``python -m repro``.

Runs the full study at a chosen scale and prints every table and figure,
or a single artefact.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.core import report
from repro.core.pipeline import run_study
from repro.simulation.config import SimulationConfig

ARTEFACTS = {
    "table1": report.render_table1,
    "fig1": report.render_fig1,
    "fig2": report.render_fig2,
    "fig3": report.render_fig3,
    "table2": report.render_table2,
    "fig4": report.render_fig4,
    "table3": report.render_table3,
    "table4": report.render_table4,
    "fig5": report.render_fig5,
    "fig6": report.render_fig6,
    "table6": report.render_table6,
    "fig7": report.render_fig7,
    "fig8": report.render_fig8,
    "fig9": report.render_fig9,
    "fig10": report.render_fig10,
    "fig11": report.render_fig11,
    "fig12": report.render_fig12,
    "health": report.render_collection_health,
    "integrity": report.render_integrity,
    "telemetry": report.render_telemetry,
}


def _shard_urls(count: int = 4) -> tuple[str, ...]:
    return tuple("https://shard%02d.pds.bsky.network" % i for i in range(count))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["lint"]:
        # The analyzer has its own option surface; hand over before the
        # study parser can reject its flags.
        from repro.devtools.lint.cli import main as lint_main

        return lint_main(argv[1:])
    if argv[:1] == ["top"]:
        # The live dashboard likewise owns its options.
        from repro.obs.top import main as top_main

        return top_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce 'Looking AT the Blue Skies of Bluesky' (IMC 2024).",
        epilog="'python -m repro lint' runs the determinism & shard-safety "
        "static analyzer; 'python -m repro top' is the live study "
        "dashboard (each has its own --help).",
    )
    parser.add_argument(
        "artefact",
        nargs="?",
        default="all",
        choices=["all", "table5"] + sorted(ARTEFACTS),
        help="which table/figure to print (default: all)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=20000,
        metavar="DENOM",
        help="population scale denominator; users = 5.52M / DENOM (default 20000)",
    )
    parser.add_argument("--feed-scale", type=float, default=800, metavar="DENOM")
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        metavar="SEED",
        help="run with deterministic fault injection: a seeded, recoverable "
        "plan of relay outages, transient errors, and firehose disconnects "
        "over the collection window (see the 'health' artefact)",
    )
    parser.add_argument(
        "--adversary-seed",
        type=int,
        default=None,
        metavar="SEED",
        help="run with seeded Byzantine hosts: poisoned PDS shards serving "
        "corrupted CARs and lying DID documents, a relay garbling firehose "
        "frames, and forged handle answers (see the 'integrity' artefact)",
    )
    parser.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        help="journal study progress to DIR (atomic write-then-rename); "
        "required for --resume and --crash-seed",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="restore a checkpoint from --checkpoint-dir and continue; the "
        "finished study's artefacts are byte-identical to an uninterrupted "
        "run of the same seed",
    )
    parser.add_argument(
        "--crash-seed",
        type=int,
        default=None,
        metavar="SEED",
        help="kill the study at a seeded progress point (testing the "
        "checkpoint/resume path); rerun with --resume to continue",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    parser.add_argument(
        "--export",
        metavar="DIR",
        help="also write every artefact's underlying data as CSV/JSON",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write the study's metrics registry snapshot (deterministic "
        "JSON; see the 'telemetry' artefact) to PATH, plus an OpenMetrics "
        "text rendering of the same registry next to it (.prom)",
    )
    parser.add_argument(
        "--events-out",
        metavar="PATH",
        help="write the structured study event log (JSONL: phase "
        "transitions, fault injections, quarantines; dual virtual+wall "
        "clocks) to PATH",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        help="record spans and write a Chrome trace_event JSON file to "
        "PATH (open in chrome://tracing or https://ui.perfetto.dev)",
    )
    parser.add_argument(
        "--trace-sample",
        type=int,
        default=16,
        metavar="N",
        help="record 1-in-N spans for high-frequency categories like "
        "per-XRPC-call spans (default 16; 1 = record everything)",
    )
    args = parser.parse_args(argv)

    config = SimulationConfig(
        seed=args.seed, scale=1 / args.scale, feed_scale=1 / args.feed_scale
    )
    if args.artefact == "table5":
        print(report.render_table5())
        return 0
    progress = None if args.quiet else (lambda msg: print("  " + msg, file=sys.stderr))
    if not args.quiet:
        print(
            "simulating %d users / %d feeds / %d labelers..."
            % (config.n_users, config.n_feed_generators, config.n_labelers),
            file=sys.stderr,
        )
    fault_plan = None
    if args.fault_seed is not None:
        from repro.netsim.faults import FaultPlan
        from repro.simulation.config import (
            FIREHOSE_COLLECT_END_US,
            FIREHOSE_COLLECT_START_US,
        )

        fault_plan = FaultPlan.recoverable(
            args.fault_seed, FIREHOSE_COLLECT_START_US, FIREHOSE_COLLECT_END_US
        )
    adversarial_plan = None
    if args.adversary_seed is not None:
        from repro.netsim.faults import AdversarialPlan

        shards = _shard_urls()
        adversarial_plan = AdversarialPlan.poison(
            args.adversary_seed,
            pds_hosts=shards[:3],
            relay_url="https://bsky.network",
            decoy_pds=shards[3],
        )
    crash_plan = None
    if args.crash_seed is not None:
        from repro.netsim.faults import CrashPlan

        if not args.checkpoint_dir:
            parser.error("--crash-seed requires --checkpoint-dir")
        crash_plan = CrashPlan.seeded(args.crash_seed)
    if args.resume and not args.checkpoint_dir:
        parser.error("--resume requires --checkpoint-dir")
    from repro.obs.telemetry import Telemetry

    telemetry = Telemetry(trace=args.trace_out is not None, trace_sample=args.trace_sample)
    started = time.time()
    try:
        _, datasets = run_study(
            config,
            progress=progress,
            fault_plan=fault_plan,
            adversarial_plan=adversarial_plan,
            checkpoint_dir=args.checkpoint_dir,
            resume=args.resume,
            crash_plan=crash_plan,
            telemetry=telemetry,
        )
    except Exception as exc:
        from repro.netsim.faults import StudyCrashed

        if not isinstance(exc, StudyCrashed):
            raise
        print(
            "study crashed at tick %d (%s); rerun with --resume "
            "--checkpoint-dir %s to continue" % (exc.tick, exc.label, args.checkpoint_dir),
            file=sys.stderr,
        )
        return 3
    if not args.quiet:
        print("study ready in %.1fs" % (time.time() - started), file=sys.stderr)
    if args.artefact == "all":
        print(report.full_report(datasets))
    else:
        print(ARTEFACTS[args.artefact](datasets))
    if args.export:
        from repro.core.export import export_artefacts

        paths = export_artefacts(datasets, args.export)
        if not args.quiet:
            print("exported %d artefact files to %s" % (len(paths), args.export), file=sys.stderr)
    if args.metrics_out:
        from repro.core.atomicio import atomic_write_text

        atomic_write_text(args.metrics_out, telemetry.metrics_json())
        base = args.metrics_out
        if base.endswith(".json"):
            base = base[: -len(".json")]
        prom_path = base + ".prom"
        atomic_write_text(prom_path, telemetry.metrics_openmetrics())
        if not args.quiet:
            print(
                "wrote metrics snapshot to %s (OpenMetrics: %s)"
                % (args.metrics_out, prom_path),
                file=sys.stderr,
            )
    if args.events_out:
        from repro.core.atomicio import atomic_write_text

        atomic_write_text(args.events_out, telemetry.events_jsonl())
        if not args.quiet:
            print(
                "wrote %d study events to %s"
                % (telemetry.events.stats()["events"], args.events_out),
                file=sys.stderr,
            )
    if args.trace_out:
        from repro.core.atomicio import atomic_write_json

        atomic_write_json(args.trace_out, telemetry.tracer.export())
        if not args.quiet:
            stats = telemetry.tracer.stats()
            print(
                "wrote %d trace events to %s (open in chrome://tracing)"
                % (stats["events"], args.trace_out),
                file=sys.stderr,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
