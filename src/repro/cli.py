"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``reproduce [names...]``   regenerate paper tables/figures (all by default)
``link``                   analytic link report for one placement
``network --nodes N``      one multi-node snapshot
``characterize``           channel statistics for the default lab
``chaos --scenario NAME``  fault-injection run: recovery ladder vs static
``chaos --ap-crash``       multi-AP failover vs a frozen single AP
``chaos ... --json``       same run, but emit the telemetry export (JSONL)
``chaos --scenario all``   the scenario sweep
``admission saturate``     offered-load saturation study: blocking
                           probability vs load through the admission
                           ladder (``--nodes``, ``--load``, ``--jobs``,
                           ``--out``/``--resume``, ``--json``)
``energy compare``         Table-1-style node-class comparison: the
                           active node vs backscatter tags vs
                           harvesting duty-cycled nodes (a
                           repro.engine campaign; ``--replicates``,
                           ``--jobs``, ``--out``/``--resume``,
                           ``--json``)
``energy outage``          energy-outage survival drill: a
                           duty-cycled fleet rides a harvesting
                           blackout; dormant nodes must not trip
                           cluster failover (same campaign flags)
``campaign EXPERIMENT``    run a sweep as a sharded, resumable campaign
                           (``--jobs``, ``--shards``, ``--out``,
                           ``--resume``; supervision via
                           ``--max-retries``, ``--shard-timeout``,
                           ``--on-failure fail|quarantine|degrade``)
``telemetry summarize F``  per-subsystem tables from a JSONL export
``telemetry flame F``      collapsed flamegraph stacks from a JSONL export
``fsck PATHS...``          scan campaign journals / AP checkpoints /
                           telemetry exports for corruption; ``--repair``
                           salvages the valid records and quarantines
                           the damaged ones; nonzero exit on damage
``list``                   available experiment names

The reprolint static analyser is repo tooling, not a subcommand: run
``python tools/reprolint`` from a checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Callable
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:
    from .engine import ShardExecutor

__all__ = ["main", "build_parser"]


def _add_campaign_flags(parser: argparse.ArgumentParser) -> None:
    """The seed, worker and result-store flags every campaign preset
    (``admission saturate``, ``energy compare|outage``, ``campaign``)
    shares."""
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign master seed")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (1 = in-process serial; "
                             ">1 runs supervised)")
    parser.add_argument("--shards", type=int, default=None,
                        help="shard count (default: --jobs); results "
                             "never depend on it")
    parser.add_argument("--out", default=None,
                        help="JSONL result-store path: completed shards "
                             "are journaled here, crash-safely")
    parser.add_argument("--resume", action="store_true",
                        help="allow --out to already exist and resume "
                             "the campaign it holds")


def build_parser() -> argparse.ArgumentParser:
    """The repro CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="mmX (SIGCOMM 2019) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("reproduce",
                         help="regenerate paper tables and figures")
    rep.add_argument("names", nargs="*",
                     help="experiment names (default: all)")

    link = sub.add_parser("link", help="analytic link report")
    link.add_argument("--distance", type=float, default=3.0,
                      help="node-AP distance [m]")
    link.add_argument("--offset-deg", type=float, default=0.0,
                      help="node orientation offset from the AP [deg]")
    link.add_argument("--blocked", action="store_true",
                      help="put a person in the line of sight")

    net = sub.add_parser("network", help="multi-node snapshot")
    net.add_argument("--nodes", type=int, default=10)
    net.add_argument("--seed", type=int, default=0)

    sub.add_parser("characterize", help="channel statistics")

    chaos = sub.add_parser(
        "chaos", help="run a named fault-injection scenario")
    chaos.add_argument("--scenario", default="kitchen-sink",
                       help="fault scenario name, or 'all' for the sweep")
    chaos.add_argument("--seed", type=int, default=0,
                       help="master seed (faults + recovery jitter)")
    chaos.add_argument("--duration", type=float, default=30.0,
                       help="simulated seconds")
    chaos.add_argument("--ap-crash", action="store_true",
                       help="run the multi-AP failover comparison "
                            "(cluster vs frozen single AP) instead of "
                            "a link-fault scenario")
    chaos.add_argument("--json", action="store_true", dest="as_json",
                       help="emit the run's telemetry export as JSONL "
                            "on stdout instead of the text report")

    adm = sub.add_parser(
        "admission",
        help="spectrum/SDM admission-control studies")
    adm_sub = adm.add_subparsers(dest="admission_command", required=True)
    sat = adm_sub.add_parser(
        "saturate",
        help="blocking probability vs offered load through the "
             "admission ladder (a repro.engine campaign)")
    sat.add_argument("--nodes", type=int, default=600,
                     help="Poisson arrivals simulated per trial")
    sat.add_argument("--load", type=float, action="append", default=None,
                     metavar="L",
                     help="offered-load point (repeatable; default: "
                          "the stock sweep)")
    sat.add_argument("--replicates", type=int, default=4,
                     help="independent trials per load point")
    _add_campaign_flags(sat)
    sat.add_argument("--json", action="store_true", dest="as_json",
                     help="emit the saturation curve as JSON rows")

    energy = sub.add_parser(
        "energy",
        help="node-class and energy-constrained-operation studies")
    energy_sub = energy.add_subparsers(dest="energy_command",
                                       required=True)
    comp = energy_sub.add_parser(
        "compare",
        help="Table-1-style node-class comparison: active vs "
             "backscatter vs harvesting (a repro.engine campaign)")
    comp.add_argument("--bits", type=int, default=400,
                      help="payload bits measured per link trial")
    surv = energy_sub.add_parser(
        "outage",
        help="energy-outage survival drill: a duty-cycled fleet "
             "rides a harvesting blackout without tripping cluster "
             "failover (a repro.engine campaign)")
    surv.add_argument("--nodes", type=int, default=6,
                      help="duty-cycled nodes per fleet trial")
    for preset in (comp, surv):
        preset.add_argument("--replicates", type=int, default=4,
                            help="independent trials per node class "
                                 "(compare) or fleets (outage)")
        _add_campaign_flags(preset)
        preset.add_argument("--json", action="store_true",
                            dest="as_json",
                            help="emit the aggregate as JSON instead "
                                 "of the text table")

    camp = sub.add_parser(
        "campaign",
        help="run a figure sweep as a sharded, resumable campaign")
    camp.add_argument("experiment",
                      choices=["fig10", "fig11", "fig13"],
                      help="which sweep to run")
    camp.add_argument("--trials", type=int, default=None,
                      help="trial count (fig11: placements, fig13: "
                           "trials per node count; fig10's count is "
                           "its grid)")
    _add_campaign_flags(camp)
    camp.add_argument("--max-retries", type=int, default=None,
                      help="supervise the campaign: retry each failed "
                           "shard up to N times (deterministic "
                           "exponential backoff) before quarantining")
    camp.add_argument("--shard-timeout", type=float, default=None,
                      metavar="SECONDS",
                      help="supervise the campaign: absolute per-shard "
                           "attempt deadline; hung workers are timed "
                           "out and retried")
    camp.add_argument("--on-failure", default=None,
                      choices=["fail", "quarantine", "degrade"],
                      help="supervised shard that exhausts its retries: "
                           "kill the campaign (fail), complete without "
                           "it (quarantine), or re-run it in-process "
                           "as a last resort (degrade)")

    tele = sub.add_parser(
        "telemetry", help="inspect sim-time telemetry JSONL exports")
    tele_sub = tele.add_subparsers(dest="telemetry_command", required=True)
    summ = tele_sub.add_parser(
        "summarize", help="render per-subsystem metric/span tables")
    summ.add_argument("path", help="telemetry JSONL export file")
    flame = tele_sub.add_parser(
        "flame", help="emit collapsed flamegraph stacks (sim-time µs)")
    flame.add_argument("path", help="telemetry JSONL export file")

    fsck = sub.add_parser(
        "fsck",
        help="verify (and repair) durable artifacts: campaign "
             "journals, AP checkpoints, telemetry exports")
    fsck.add_argument("paths", nargs="+",
                      help="artifact files to check")
    fsck.add_argument("--repair", action="store_true",
                      help="salvage valid records in place: damaged "
                           "lines move to a .quarantine sidecar and "
                           "the artifact is rewritten atomically")
    fsck.add_argument("--json", action="store_true", dest="as_json",
                      help="emit one JSON report object per path")

    sub.add_parser("list", help="list experiment names")
    return parser


def _cmd_reproduce(names: list[str]) -> int:
    from .experiments import (ablations, chaos, extensions, fig06_tma,
                              fig07_vco, fig08_patterns, fig09_waveforms,
                              fig10_snr_map, fig11_ber_cdf, fig12_range,
                              fig13_multinode, table1)

    registry = {
        "fig06": lambda: fig06_tma.render(fig06_tma.run()),
        "fig07": lambda: fig07_vco.render(fig07_vco.run()),
        "fig08": lambda: fig08_patterns.render(fig08_patterns.run()),
        "fig09": lambda: fig09_waveforms.render(fig09_waveforms.run()),
        "fig10": lambda: fig10_snr_map.render(fig10_snr_map.run()),
        "fig11": lambda: fig11_ber_cdf.render(fig11_ber_cdf.run()),
        "fig12": lambda: fig12_range.render(fig12_range.run()),
        "fig13": lambda: fig13_multinode.render(fig13_multinode.run()),
        "table1": lambda: table1.render(table1.run()),
        "ablations": lambda: "\n\n".join([
            ablations.render(ablations.run_orthogonality(),
                             ablations.run_modulation(),
                             ablations.run_beam_search()),
            ablations.render_oracle(ablations.run_oracle_comparison()),
        ]),
        "extensions": lambda: "\n\n".join([
            extensions.render_mobility(extensions.run_mobility(
                duration_s=30.0)),
            extensions.render_scheduler(extensions.run_scheduler(trials=10)),
            extensions.render_60ghz(extensions.run_60ghz()),
            extensions.render_channel_stats(extensions.run_channel_stats()),
            extensions.render_streaming(extensions.run_streaming()),
        ]),
        "chaos": lambda: chaos.render_all(chaos.run_all()),
    }
    chosen = names or list(registry)
    unknown = [n for n in chosen if n not in registry]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}",
              file=sys.stderr)
        return 2
    for name in chosen:
        print(f"===== {name} =====")
        print(registry[name]())
        print()
    return 0


def _cmd_link(distance: float, offset_deg: float, blocked: bool) -> int:
    if distance <= 0:
        return _usage_error("repro link", "--distance must be positive")
    if not math.isfinite(offset_deg):
        return _usage_error("repro link", "--offset-deg must be finite")
    from .core.link import OtamLink
    from .sim.environment import default_lab_room
    from .sim.geometry import Point, angle_of, normalize_angle
    from .sim.mobility import los_blocker_between
    from .sim.placement import Placement

    room = default_lab_room()
    ap = Point(room.width_m / 2.0, 0.15)
    node = Point(room.width_m / 2.0, 0.15 + distance)
    if not room.contains(node, margin=0.1):
        print("distance does not fit in the 6 m lab room", file=sys.stderr)
        return 2
    toward = angle_of(node, ap)
    placement = Placement(node,
                          normalize_angle(toward + np.radians(offset_deg)),
                          ap, np.pi / 2)
    if blocked:
        room.add_blocker(los_blocker_between(node, ap))
    breakdown = OtamLink(placement=placement, room=room).snr_breakdown()
    print(f"distance {distance:.1f} m, offset {offset_deg:+.0f} deg, "
          f"blocked={blocked}")
    print(f"  Beam 1 level   : {breakdown.beam1_level_dbm:7.1f} dBm")
    print(f"  Beam 0 level   : {breakdown.beam0_level_dbm:7.1f} dBm")
    print(f"  SNR with OTAM  : {breakdown.otam_snr_db:7.1f} dB")
    print(f"  SNR without    : {breakdown.no_otam_snr_db:7.1f} dB")
    print(f"  predicted BER  : {breakdown.ber_with_otam():.2e} (OTAM) / "
          f"{breakdown.ber_without_otam():.2e} (baseline)")
    print(f"  inverted       : {breakdown.inverted}")
    return 0


def _cmd_network(nodes: int, seed: int) -> int:
    if nodes < 1:
        return _usage_error("repro network", "--nodes must be at least 1")
    if seed < 0:
        return _usage_error("repro network", "--seed cannot be negative")
    from .network.network import MultiNodeNetwork
    from .sim.environment import default_lab_room

    network = MultiNodeNetwork(default_lab_room(),
                               np.random.default_rng(seed))
    snapshot = network.evaluate(nodes)
    print(f"{nodes} simultaneous node(s), seed {seed}:")
    for stats in snapshot.nodes:
        print(f"  node {stats.node_id:2d}: ch {stats.channel_index:2d}  "
              f"SINR {stats.sinr_db:5.1f} dB")
    print(f"mean {snapshot.mean_sinr_db:.1f} dB, "
          f"min {snapshot.min_sinr_db:.1f} dB")
    return 0


def _cmd_characterize() -> int:
    from .channel.statistics import characterize
    from .sim.environment import default_lab_room
    from .sim.placement import PlacementSampler

    room = default_lab_room()
    sampler = PlacementSampler(room, np.random.default_rng(0))
    stats = characterize(room, sampler.sample_many(60))
    print("channel statistics over 60 placements in the 6x4 m lab:")
    print(f"  paths: mean {stats.mean_path_count:.1f}, "
          f"median {stats.median_path_count:.0f}, "
          f"max {stats.max_path_count} (sparse: {stats.is_sparse})")
    print(f"  median K-factor      : {stats.median_k_factor_db:.1f} dB")
    print(f"  median delay spread  : {stats.median_delay_spread_ns:.2f} ns")
    print(f"  median angular spread: "
          f"{stats.median_angular_spread_deg:.0f} deg")
    return 0


def _usage_error(prog: str, message: str) -> int:
    """Report a bad flag as ``prog: message`` on stderr; exit code 2."""
    print(f"{prog}: {message}", file=sys.stderr)
    return 2


def _campaign_flag_error(args: argparse.Namespace) -> str | None:
    """Why the shared campaign flags cannot run, or ``None``.

    Checks the flags every preset declares (``--seed``, ``--jobs``,
    ``--shards``, ``--out``/``--resume``) and, where the command
    declares them, the supervision knobs.
    """
    max_retries = getattr(args, "max_retries", None)
    shard_timeout = getattr(args, "shard_timeout", None)
    out = args.out
    if args.seed < 0:
        return "--seed cannot be negative"
    if args.jobs < 1:
        return "--jobs must be at least 1"
    if args.shards is not None and args.shards < 1:
        return "--shards must be at least 1"
    if max_retries is not None and max_retries < 0:
        return "--max-retries cannot be negative"
    if shard_timeout is not None and not 0 < shard_timeout < math.inf:
        return "--shard-timeout must be positive and finite"
    if args.resume and out is None:
        return "--resume needs --out (the store to resume from)"
    if out is not None and Path(out).exists() and not args.resume:
        return (f"{out} already exists; pass --resume to continue that "
                "campaign, or choose a fresh path")
    return None


def _chaos_duration_error(duration_s: float,
                          ap_crash: bool) -> str | None:
    """Why a chaos ``--duration`` cannot run, or ``None``.

    Every scenario run ends in the fault-free
    :data:`~repro.experiments.chaos.QUIET_TAIL_S`, so it must last
    longer than that; the AP-crash drill has no quiet tail.  Either run
    steps through the whole duration, so it must be finite.
    """
    from .experiments.chaos import QUIET_TAIL_S

    if not math.isfinite(duration_s):
        return "--duration must be finite"
    if ap_crash:
        return None if duration_s > 0 else "--duration must be positive"
    if duration_s > QUIET_TAIL_S:
        return None
    return (f"--duration must exceed the {QUIET_TAIL_S:g} s fault-free "
            "tail that ends every scenario run")


def _campaign_executor(args: argparse.Namespace) -> ShardExecutor:
    """The one place the CLI builds an executor.

    Supervision flags given, or ``--jobs > 1``: a
    :class:`~repro.engine.SupervisedPool` under the flags' policy.
    Otherwise the in-process :class:`~repro.engine.SerialExecutor`.
    """
    from .engine import SerialExecutor, SupervisedPool, SupervisionPolicy

    max_retries = getattr(args, "max_retries", None)
    shard_timeout = getattr(args, "shard_timeout", None)
    on_failure = getattr(args, "on_failure", None)
    if args.jobs == 1 and max_retries is None and shard_timeout is None \
            and on_failure is None:
        return SerialExecutor()
    policy = SupervisionPolicy(
        max_attempts=(max_retries + 1 if max_retries is not None
                      else SupervisionPolicy.max_attempts),
        shard_timeout_s=shard_timeout,
        on_failure=on_failure or SupervisionPolicy.on_failure)
    return SupervisedPool(jobs=args.jobs, policy=policy)


def _run_campaign(prog: str, args: argparse.Namespace,
                  run: Callable[[ShardExecutor], str]) -> int:
    """Validate the shared flags, build the executor, run one preset."""
    error = _campaign_flag_error(args)
    if error is not None:
        return _usage_error(prog, error)
    executor = _campaign_executor(args)
    return _report(prog, lambda: run(executor), executor, args.out)


def _report(prog: str, run: Callable[[], str],
            executor: ShardExecutor | None = None,
            out: str | None = None) -> int:
    """Run a command and print its outcome, the same way for every one.

    The text goes to stdout; the store path and any supervision outcome
    go to stderr, and quarantined shards that never completed make the
    exit code 1.  A campaign or store failure is one diagnosable line
    and exit code 2 — never a raw traceback.
    """
    from .engine import EngineError, StoreError

    try:
        text = run()
    except (EngineError, StoreError) as exc:
        print(_campaign_diagnostic(prog, exc, executor, out),
              file=sys.stderr)
        return 2
    print(text)
    if out is not None:
        print(f"\ncampaign store: {out}", file=sys.stderr)
    report = getattr(executor, "last_report", None)
    if report is None or not (report.retries or report.quarantined):
        return 0
    survived = (f"{report.retries} retr"
                f"{'y' if report.retries == 1 else 'ies'}")
    if report.degraded:
        survived += (f", degraded shards {sorted(report.degraded)} "
                     "recovered in-process")
    print(f"{prog}: supervised run survived {survived}", file=sys.stderr)
    if report.abandoned:
        where = f"; journal: {out}" if out is not None else ""
        print(f"{prog}: partial result — quarantined shards "
              f"{sorted(report.abandoned)} never completed{where}",
              file=sys.stderr)
        return 1
    return 0


def _campaign_diagnostic(prog: str, exc: Exception, executor: object,
                         out: str | None) -> str:
    """The one-line failure summary a campaign command prints."""
    parts = [f"{prog}: {type(exc).__name__}: {exc}"]
    report = getattr(executor, "last_report", None)
    if report is not None and report.failures:
        failed = sorted({f.shard_id for f in report.failures})
        parts.append(f"failed shards: {failed}")
        if report.quarantined:
            parts.append(
                f"quarantined: {sorted(report.quarantined)}")
    if out is not None:
        parts.append(f"journal: {out}")
    return " | ".join(parts)


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .experiments import chaos
    from .faults import SCENARIOS
    from .telemetry import Recorder, to_jsonl_lines

    error = ("--seed cannot be negative" if args.seed < 0
             else _chaos_duration_error(args.duration, args.ap_crash))
    if error is not None:
        return _usage_error("repro chaos", error)
    # With --json every run records into one in-process Recorder and the
    # export — the same deterministic JSONL the library writes — goes to
    # stdout.
    recorder = Recorder() if args.as_json else None
    common: dict[str, Any] = {"seed": args.seed,
                              "duration_s": args.duration,
                              "telemetry": recorder}
    execute: Callable[[], Any]
    render: Callable[[Any], str]
    if args.ap_crash:
        execute = partial(chaos.run_failover, **common)
        render = chaos.render_failover
    elif args.scenario == "all":
        execute = partial(chaos.run_all, **common)
        render = chaos.render_all
    elif args.scenario in SCENARIOS:
        execute = partial(chaos.run, args.scenario, **common)
        render = chaos.render
    else:
        print(f"unknown scenario {args.scenario!r}; choose from "
              f"{', '.join(sorted(SCENARIOS))} or 'all'",
              file=sys.stderr)
        return 2

    def run() -> str:
        outcome = execute()
        if recorder is not None:
            return "\n".join(to_jsonl_lines(recorder))
        return render(outcome)

    return _report("repro chaos", run)


def _cmd_admission_saturate(args: argparse.Namespace) -> int:
    prog = "repro admission saturate"
    if args.nodes < 1:
        return _usage_error(prog, "--nodes must be at least 1")
    if args.replicates < 1:
        return _usage_error(prog, "--replicates must be at least 1")
    if args.load is not None and any(
            not (lo > 0 and math.isfinite(lo)) for lo in args.load):
        return _usage_error(prog, "--load points must be finite and "
                                  "positive")

    from .admission import default_config, render, run_saturation
    from .admission.saturation import DEFAULT_LOADS

    config = default_config(
        loads=tuple(args.load) if args.load is not None else DEFAULT_LOADS,
        replicates=args.replicates, arrivals=args.nodes)

    def run(executor: ShardExecutor) -> str:
        result = run_saturation(config, master_seed=args.seed,
                                executor=executor,
                                num_shards=args.shards, store=args.out)
        if args.as_json:
            return json.dumps(result.curve(), indent=2)
        return render(result)

    return _run_campaign(prog, args, run)


def _cmd_energy(args: argparse.Namespace) -> int:
    command = args.energy_command
    prog = f"repro energy {command}"
    if args.replicates < 1:
        return _usage_error(prog, "--replicates must be at least 1")
    if command == "compare" and args.bits < 1:
        return _usage_error(prog, "--bits must be at least 1")
    if command == "outage" and args.nodes < 1:
        return _usage_error(prog, "--nodes must be at least 1")

    def run(executor: ShardExecutor) -> str:
        campaign: dict[str, Any] = {
            "master_seed": args.seed, "executor": executor,
            "num_shards": args.shards, "store": args.out}
        payload: object
        if command == "compare":
            from .energy import compare

            result = compare.run_compare(
                compare.default_config(replicates=args.replicates,
                                       num_bits=args.bits), **campaign)
            payload, text = result.rows(), compare.render(result)
        else:
            from .energy import outage

            fleet = outage.run_outage(
                outage.default_config(nodes=args.nodes,
                                      replicates=args.replicates),
                **campaign)
            payload, text = fleet.summary(), outage.render(fleet)
        return json.dumps(payload, indent=2) if args.as_json else text

    return _run_campaign(prog, args, run)


def _cmd_campaign(args: argparse.Namespace) -> int:
    prog = "repro campaign"
    if args.trials is not None and args.experiment == "fig10":
        return _usage_error(prog, "fig10's trial count is its placement "
                                  "grid; --trials does not apply")
    if args.trials is not None and args.trials < 1:
        return _usage_error(prog, "--trials must be at least 1")
    trials = args.trials if args.trials is not None else 30

    def run(executor: ShardExecutor) -> str:
        campaign: dict[str, Any] = {
            "seed": args.seed, "executor": executor,
            "num_shards": args.shards}
        if args.experiment == "fig10":
            from .experiments import fig10_snr_map

            return fig10_snr_map.render(fig10_snr_map.run(
                store=args.out, **campaign))
        if args.experiment == "fig11":
            from .experiments import fig11_ber_cdf

            return fig11_ber_cdf.render(fig11_ber_cdf.run(
                num_placements=trials, store=args.out, **campaign))
        from .experiments import fig13_multinode

        return fig13_multinode.render(fig13_multinode.run(
            trials_per_count=trials, store=args.out, **campaign))

    return _run_campaign(prog, args, run)


def _cmd_telemetry(command: str, path: str) -> int:
    from .telemetry import load_path, render, spans_to_collapsed, summarize

    try:
        records = load_path(path)
    except OSError as exc:
        print(f"repro telemetry: cannot read {path}: {exc}",
              file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"repro telemetry: {path} is not a telemetry JSONL "
              f"export: {exc}", file=sys.stderr)
        return 2
    if command == "summarize":
        print(render(summarize(records)))
        return 0
    if command == "flame":
        for line in spans_to_collapsed(records):
            print(line)
        return 0
    raise AssertionError("unreachable")


def _cmd_fsck(paths: list[str], repair: bool, as_json: bool) -> int:
    from .durability import fsck_paths

    reports, exit_code = fsck_paths(paths, repair=repair)
    if as_json:
        print(json.dumps([report.to_dict() for report in reports],
                         indent=1, sort_keys=True))
    else:
        for report in reports:
            print(report.summary())
    return exit_code


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "reproduce":
        return _cmd_reproduce(args.names)
    if args.command == "link":
        return _cmd_link(args.distance, args.offset_deg, args.blocked)
    if args.command == "network":
        return _cmd_network(args.nodes, args.seed)
    if args.command == "characterize":
        return _cmd_characterize()
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "admission":
        return _cmd_admission_saturate(args)
    if args.command == "energy":
        return _cmd_energy(args)
    if args.command == "campaign":
        return _cmd_campaign(args)
    if args.command == "telemetry":
        return _cmd_telemetry(args.telemetry_command, args.path)
    if args.command == "fsck":
        return _cmd_fsck(args.paths, args.repair, args.as_json)
    if args.command == "list":
        print("fig06 fig07 fig08 fig09 fig10 fig11 fig12 fig13 "
              "table1 ablations extensions chaos")
        return 0
    raise AssertionError("unreachable")
