"""Command-line entry point for simulation, prediction and tracking runs.

Every command is a pure function of its configuration: a flat ``key = value``
config file (``#`` comments, dotted keys for nested values) merged with
command-line flags, echoed verbatim into the output directory so reruns are
reproducible byte for byte.

Exit codes: 0 success, 2 configuration error, 3 no eligible trials,
4 I/O error or an input whose motion makes a filter mean non-finite.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import os
import sys
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from .bench import (PROTOCOL_KEYS, ConfigError, Key, NoEligibleTrials, ProtocolConfig,
                    configure, echo_list, parse_float, parse_int, parse_ints,
                    run_prediction_protocol, run_tracking_protocol, sweep)
from .data import (NonFiniteMotion, OverlappingScenario, Scenario, corrupt, make_scenario,
                   min_pairwise_separation, parse_trajectories, write_trajectories)
from .motion import resolve_model
from .rvo import check_domain

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_TRIALS = 3
EXIT_IO = 4

# glibc's mallopt parameter numbers (malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@dataclass
class RunConfig:
    """Run options of one command invocation.

    Protocol keys stay parsed in ``settings`` until every setting is merged;
    `configure` then builds the ProtocolConfig once.
    """

    model: str = "rvo+"
    filter_kind: str = "hpf"
    seed: int = 0
    kind: Optional[str] = None
    agents: int = 2
    steps: Optional[int] = None
    input: Optional[str] = None
    fmt: str = "csv-fixy"
    out: str = "out"
    obs_noise: float = 0.0
    occlusions: Tuple[Tuple[int, int, int], ...] = ()
    sweep_objective: str = "mean_error"
    sweep_seeds: Tuple[int, ...] = (0,)
    sweep_grid: Dict[str, Tuple] = field(default_factory=dict)
    settings: Dict[str, object] = field(default_factory=dict)


def _choice(*allowed):
    def parse(raw):
        if raw not in allowed:
            raise ValueError(f"expected {' or '.join(allowed)}, got '{raw}'")
        return raw
    return parse


def _optional(parse):
    return lambda raw: parse(raw) if raw else None


def _blank(value) -> str:
    return "" if value is None else str(value)


def _parse_model(raw: str) -> str:
    resolve_model(raw)
    return raw


def _at_least(low):
    def parse(raw):
        value = parse_int(raw)
        if value < low:
            raise ValueError(f"must be >= {low}")
        return value
    return parse


def _parse_seed(raw: str) -> int:
    seed = parse_int(raw)
    if not (0 <= seed < 2**64):
        raise ValueError("must be a 64-bit unsigned value")
    return seed


def _parse_obs_noise(raw: str) -> float:
    sigma = parse_float(raw)
    check_domain("obs_noise", sigma)
    return sigma


def _parse_occlusions(raw: str) -> Tuple[Tuple[int, int, int], ...]:
    windows = []
    for chunk in raw.split(";") if raw else ():
        parts = chunk.split(":")
        if len(parts) != 3:
            raise ValueError(f"expected id:start:length, got '{chunk}'")
        try:
            windows.append(tuple(int(p) for p in parts))
        except ValueError:
            raise ValueError(f"expected integers in '{chunk}'") from None
    return tuple(windows)


#: Run-option keys: each names a field of RunConfig.
RUN_KEYS: Dict[str, Key] = {
    "model": Key("model", _parse_model, str),
    "filter": Key("filter_kind", _choice("pf", "hpf"), str),
    "seed": Key("seed", _parse_seed),
    "kind": Key("kind", _optional(str), _blank),
    "agents": Key("agents", _at_least(1)),
    "steps": Key("steps", _optional(_at_least(0)), _blank),
    "input": Key("input", _optional(str), _blank),
    "format": Key("fmt", _choice("csv-fixy", "obsmat"), str),
    "out": Key("out", str, str),
    "obs.noise": Key("obs_noise", _parse_obs_noise),
    "occlusions": Key("occlusions", _parse_occlusions,
                      lambda windows: ";".join(f"{a}:{s}:{l}" for a, s, l in windows)),
    "sweep.objective": Key("sweep_objective", _choice("mean_error", "st"), str),
    "sweep.seeds": Key("sweep_seeds", parse_ints, echo_list),
}

#: Command-line flags as (flag, key, help); each value is parsed as its key's.
FLAGS = (
    ("--model", "model", "lin, lin+, rvo or rvo+"),
    ("--filter", "filter", "pf or hpf"),
    ("--seed", "seed", "random seed"),
    ("--kind", "kind", "head_on, crossing, circle or corridor"),
    ("--agents", "agents", "number of agents"),
    ("--steps", "steps", "number of simulated steps"),
    ("--input", "input", "trajectory file to load"),
    ("--format", "format", "csv-fixy or obsmat"),
    ("--out", "out", "output directory"),
    ("--k", "hpf.k", "mixture order (hpf.k)"),
    ("--obs-noise", "obs.noise", "observation noise added to the trace (m)"),
    ("--occlusions", "occlusions", "id:start:len[;id:start:len...]"),
)

GRID_PREFIX = "sweep.grid."


def echo_lines(cfg: RunConfig, protocol: ProtocolConfig) -> List[str]:
    items = {key: spec.echo(spec.read(cfg)) for key, spec in RUN_KEYS.items()}
    items.update((key, spec.echo(spec.read(protocol))) for key, spec in PROTOCOL_KEYS.items())
    items.update((GRID_PREFIX + key, ";".join(PROTOCOL_KEYS[key].echo(v) for v in values))
                 for key, values in cfg.sweep_grid.items())
    return [f"{k} = {items[k]}" for k in sorted(items)]


def apply_setting(cfg: RunConfig, key: str, raw: str) -> RunConfig:
    """Parse one dotted ``key = value`` setting into the config."""
    key = key.strip()
    raw = raw.strip()
    grid_key = key[len(GRID_PREFIX):] if key.startswith(GRID_PREFIX) else None
    spec = PROTOCOL_KEYS.get(grid_key) if grid_key else RUN_KEYS.get(key, PROTOCOL_KEYS.get(key))
    if spec is None:
        raise ConfigError(key, "not a protocol key" if grid_key else "unknown configuration key")
    if grid_key == "rvo.dt":
        raise ConfigError(grid_key, "a sweep runs at its scenarios' dt and cannot vary it")
    try:
        if grid_key:
            value = tuple(spec.parse(chunk.strip()) for chunk in raw.split(";") if chunk.strip())
            if not value:
                raise ValueError("expected ';'-separated values")
        else:
            value = spec.parse(raw)
    except ValueError as exc:
        raise ConfigError(key, str(exc)) from None
    if grid_key:
        return replace(cfg, sweep_grid={**cfg.sweep_grid, grid_key: value})
    if key in RUN_KEYS:
        return replace(cfg, **{spec.path: value})
    return replace(cfg, settings={**cfg.settings, key: value})


def load_config_file(cfg: RunConfig, path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError("config", f"cannot read '{path}': {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("config", f"line {lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        cfg = apply_setting(cfg, key, value)
    return cfg


def _merge_flags(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    for _, key, _ in FLAGS:
        value = getattr(args, key)
        if value is not None:
            cfg = apply_setting(cfg, key, value)
    for setting in args.set or []:
        if "=" not in setting:
            raise ConfigError("--set", f"expected key=value, got '{setting}'")
        key, value = setting.split("=", 1)
        cfg = apply_setting(cfg, key, value)
    return cfg


def _prepare_out(cfg: RunConfig) -> str:
    try:
        os.makedirs(cfg.out, exist_ok=True)
    except OSError as exc:
        raise IOError(f"cannot create output directory '{cfg.out}': {exc}")
    return cfg.out


def _write_echo(cfg: RunConfig, protocol: ProtocolConfig, dt: float):
    protocol = replace(protocol, params=replace(protocol.params, dt=dt))  # the run's clock
    path = os.path.join(cfg.out, "config.echo")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(echo_lines(cfg, protocol)) + "\n")


def _load_scenario(cfg: RunConfig, protocol: ProtocolConfig) -> Scenario:
    if cfg.input and cfg.kind:
        raise ConfigError("input", "give either an input file or a scenario kind, not both")
    if cfg.input:
        if not os.path.exists(cfg.input):
            raise IOError(f"input file '{cfg.input}' does not exist")
        try:
            return parse_trajectories(cfg.input, fmt=cfg.fmt)
        except ValueError as exc:
            raise IOError(f"cannot parse '{cfg.input}': {exc}")
    if cfg.kind:
        try:
            return make_scenario(cfg.kind, cfg.agents, cfg.seed, steps=cfg.steps,
                                 dt=protocol.params.dt, body=protocol.body)
        except OverlappingScenario as exc:
            raise ConfigError("seed", str(exc)) from None
        except ValueError as exc:
            # The generator steps at rvo.dt / substeps, and the circle's default step
            # count grows as 1 / rvo.dt: the message's first word names the key, as in
            # `configure`.
            key = {"dt": "rvo.dt", "steps": "steps"}.get(str(exc).split(" ", 1)[0], "kind")
            raise ConfigError(key, str(exc)) from None
    raise ConfigError("input", "either an input file or a scenario kind is required")


def _trace_for(cfg: RunConfig, scenario: Scenario):
    if cfg.obs_noise > 0.0 or cfg.occlusions:
        try:
            return corrupt(scenario, cfg.obs_noise, cfg.occlusions, seed=cfg.seed)
        except NonFiniteMotion as exc:
            raise ConfigError("obs.noise", str(exc)) from None
        except ValueError as exc:
            raise ConfigError("occlusions", str(exc)) from None
    return None


def cmd_simulate(cfg: RunConfig, protocol: ProtocolConfig) -> int:
    if not cfg.kind:
        raise ConfigError("kind", "simulate requires a scenario kind")
    scenario = _load_scenario(cfg, protocol)
    _prepare_out(cfg)
    write_trajectories(scenario, os.path.join(cfg.out, "trajectories.csv"))
    _write_echo(cfg, protocol, scenario.dt)
    sep = min_pairwise_separation(scenario)
    print(f"wrote {os.path.join(cfg.out, 'trajectories.csv')} "
          f"({scenario.n_frames} frames, {len(scenario.agent_ids)} agents, "
          f"min separation {sep:.3f} m)")
    return EXIT_OK


def _run_protocol(run, cfg: RunConfig, protocol: ProtocolConfig) -> int:
    """`predict` and `track`: run one protocol on the scenario and its trace, if any."""
    scenario = _load_scenario(cfg, protocol)
    trace = _trace_for(cfg, scenario)
    _prepare_out(cfg)
    report = run(scenario, trace=trace, model=cfg.model, filter_kind=cfg.filter_kind,
                 cfg=protocol, seed=cfg.seed)
    report.to_csv(os.path.join(cfg.out, "report.csv"))
    _write_echo(cfg, protocol, scenario.dt)
    print(report.format_table())
    return EXIT_OK


# Each looks its protocol up when called, so a replaced module attribute is the one run.
def cmd_predict(cfg: RunConfig, protocol: ProtocolConfig) -> int:
    return _run_protocol(run_prediction_protocol, cfg, protocol)


def cmd_track(cfg: RunConfig, protocol: ProtocolConfig) -> int:
    return _run_protocol(run_tracking_protocol, cfg, protocol)


def cmd_sweep(cfg: RunConfig, protocol: ProtocolConfig) -> int:
    if not cfg.sweep_grid:
        raise ConfigError("sweep.grid", "sweep requires at least one sweep.grid.<key> entry")
    seeds = cfg.sweep_seeds
    scenarios = ([_load_scenario(cfg, protocol)] * len(seeds) if cfg.input  # parsed once
                 else [_load_scenario(replace(cfg, seed=seed), protocol) for seed in seeds])
    traces = [_trace_for(replace(cfg, seed=s), scenario) for s, scenario in zip(seeds, scenarios)]
    if cfg.input and traces[0] is None:  # ground truth: every seed runs the same protocol
        scenarios, traces = scenarios[:1], traces[:1]
    _prepare_out(cfg)
    result = sweep(cfg.sweep_grid, scenarios, cfg.sweep_objective, protocol,
                   model=cfg.model, filter_kind=cfg.filter_kind, seed=cfg.seed,
                   traces=traces)
    table_path = os.path.join(cfg.out, "report.csv")
    result.to_csv(table_path)
    _write_echo(cfg, protocol, scenarios[0].dt)
    best = " ".join(f"{k}={v}" for k, v in sorted(result.best.items()))
    print(f"best: {best} (objective {result.best_score:.6f})")
    print(table_path)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crowdtrack",
        description="Crowd simulation, trajectory prediction and tracking benchmarks.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func in (("simulate", cmd_simulate), ("predict", cmd_predict),
                       ("track", cmd_track), ("sweep", cmd_sweep)):
        p = sub.add_parser(name)
        p.set_defaults(func=func)
        p.add_argument("--config", help="key = value configuration file")
        for flag, key, help_text in FLAGS:
            p.add_argument(flag, dest=key, help=help_text)
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override any dotted config key")
    return parser


@functools.cache
def _keep_freed_heap():
    """Let the C heap keep freed memory for the next allocation; once per process.

    A dense `predict` frees about 1 MB of kernel temporaries per kernel call.
    At glibc's default 128 KiB trim threshold the heap hands them back to the
    system and faults them in again on the next call: tens of thousands of
    minor faults per command.  Setting the trim threshold also fixes the mmap
    threshold, which would otherwise stay at 128 KiB and map every larger
    array afresh, so both are raised.  Returns mallopt's two results (1 on
    success), or None where the C library has no mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    # 32 MiB is glibc's largest mmap threshold on 64-bit systems.
    return (mallopt(_M_MMAP_THRESHOLD, 32 << 20), mallopt(_M_TRIM_THRESHOLD, 64 << 20))


def main(argv=None) -> int:
    _keep_freed_heap()
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = RunConfig()
    try:
        if args.config:
            cfg = load_config_file(cfg, args.config)
        cfg = _merge_flags(cfg, args)
        return args.func(cfg, configure(ProtocolConfig(), cfg.settings))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NoEligibleTrials as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_TRIALS
    except NonFiniteMotion as exc:
        print(f"error: cannot filter '{cfg.input or cfg.kind}': {exc}", file=sys.stderr)
        return EXIT_IO
    except IOError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
