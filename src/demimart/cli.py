"""Configuration-driven experiment runner.

Experiments are flat text files of ``dotted.key = value`` lines (values are
JSON scalars/arrays; bare words are strings).  One experiment per file.
Reports are JSON with a fixed field set; the process exit code encodes the
verdict so suites double as CI gates:

    0 PASS, 1 FAIL, 2 INCONCLUSIVE, 3 configuration, precondition or file error.

Subcommands: gen, check-demi, stop, bound, verify, clt, slln, oracle, suite.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from . import asymptotics, bounds, generators as gen, registry
from .core import DEFAULT_TOLERANCE_Z, FAIL, INCONCLUSIVE, PASS, iter_chunks, summarize
from .registry import PreconditionError, read_param
from .stopping import StoppingRule, capped, deterministic, first_passage_down, first_passage_up

__all__ = ["main", "parse_config_text", "run", "run_suite"]

# exit code per outcome, worst first: a suite exits with its worst row's
_EXIT = {FAIL: 1, "ERROR": 3, INCONCLUSIVE: 2, PASS: 0}


def _fmt(x: float) -> str:
    """All numeric CLI output uses 12 significant digits."""
    return f"{float(x):.12g}"


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


def parse_config_text(text: str) -> dict:
    """Parse ``dotted.key = value`` lines into a nested dict."""
    root: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise PreconditionError("config", f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise PreconditionError("config", f"line {lineno}: empty key")
        try:
            parsed = json.loads(value.strip())
        except json.JSONDecodeError:
            parsed = value.strip()
        node = root
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise PreconditionError(key, "conflicts with a scalar key")
        if parts[-1] in node:
            raise PreconditionError(key, "duplicate key")
        node[parts[-1]] = parsed
    return root


@dataclass(frozen=True)
class ExperimentConfig:
    experiment_id: str
    theorem_id: str
    generator: dict | None
    stopping: dict | None
    stopping2: dict | None
    params: dict
    mode: str
    paths: int
    seed: int
    tolerance_z: float


def _list_of(kind: type):
    """Conversion of a JSON array whose items ``kind`` converts."""

    def convert(value) -> list:
        if not isinstance(value, list):
            raise TypeError(value)
        return [kind(v) for v in value]

    convert.__name__ = f"list of {kind.__name__}"
    return convert


def config_from_dict(doc: dict, required=("theorem_id", "seed")) -> ExperimentConfig:
    """The experiment in ``doc``; the keys in ``required`` must be present.

    Every value is read through ``registry.read_param``, so a missing or
    wrongly typed one raises a PreconditionError that names its key.
    """
    for key in required:
        if key not in doc:
            raise PreconditionError(key, "required")
    mode = doc.get("mode", "exact")
    if mode not in ("exact", "monte_carlo"):
        raise PreconditionError("mode", "must be 'exact' or 'monte_carlo'")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise PreconditionError("params", "must be a table of dotted keys")
    theorem_id = str(doc.get("theorem_id", ""))
    return ExperimentConfig(
        experiment_id=str(doc.get("experiment_id", theorem_id)),
        theorem_id=theorem_id,
        generator=doc.get("generator"),
        stopping=doc.get("stopping"),
        stopping2=doc.get("stopping2"),
        params=dict(params),
        mode=mode,
        paths=read_param(doc, "paths", int, 100_000, prefix=""),
        seed=read_param(doc, "seed", int, 0, prefix=""),
        tolerance_z=read_param(doc, "tolerance_z", float, DEFAULT_TOLERANCE_Z, prefix=""),
    )


def _law_from(d: dict, prefix: str) -> gen.IncrementLaw:
    name = d.get("law")
    if name is None:
        raise PreconditionError(f"{prefix}.law", "required")
    if name == "rademacher":
        return gen.rademacher()
    if name == "bernoulli":
        return gen.bernoulli(read_param(d, "p", float, prefix=prefix))
    if name == "uniform":
        if "a" not in d or "b" not in d:
            raise PreconditionError(f"{prefix}.a/b", "required")
        return gen.uniform(read_param(d, "a", float, prefix=prefix),
                           read_param(d, "b", float, prefix=prefix))
    raise PreconditionError(f"{prefix}.law", f"unknown law {name!r}")


def _cov_from(d: dict, n: int) -> np.ndarray:
    if not isinstance(d, dict):
        raise PreconditionError("generator.cov", "must be a table of dotted keys")
    kind = d.get("kind")
    if kind == "matrix":
        rows = read_param(d, "matrix", _list_of(_list_of(float)), prefix="generator.cov")
        return np.asarray(rows, dtype=np.float64)
    var = read_param(d, "var", float, 1.0, prefix="generator.cov")
    if kind == "diagonal":
        return var * np.eye(n)
    rho = read_param(d, "rho", float, 0.0, prefix="generator.cov")
    if kind == "equicorrelated":
        return var * ((1.0 - rho) * np.eye(n) + rho * np.ones((n, n)))
    if kind == "ar1":
        idx = np.arange(n)
        return var * rho ** np.abs(idx[:, None] - idx[None, :])
    raise PreconditionError(
        "generator.cov.kind", "must be diagonal, equicorrelated, ar1, or matrix"
    )


def build_generator_spec(d: dict) -> gen.GeneratorSpec:
    if not isinstance(d, dict):
        raise PreconditionError("generator", "must be a table of dotted keys")
    family = d.get("family")
    if family is None:
        raise PreconditionError("generator.family", "required")
    horizon = read_param(d, "horizon", int, prefix="generator")
    offset = read_param(d, "offset", float, 0.0, prefix="generator")
    try:
        if family == "iid":
            fields = {"law": _law_from(d, "generator")}
        elif family == "moving_sum":
            weights = read_param(d, "weights", _list_of(float), prefix="generator")
            fields = {"weights": tuple(weights), "law": _law_from(d, "generator")}
        elif family == "gaussian_assoc":
            if "cov" not in d:
                raise PreconditionError("generator.cov", "required")
            fields = {"covariance": _cov_from(d["cov"], horizon)}
        elif family == "shared_shock":
            base, shock = d.get("base"), d.get("shock")
            if not isinstance(base, dict) or not isinstance(shock, dict):
                raise PreconditionError("generator.base/shock", "required")
            fields = {
                "law": _law_from(base, "generator.base"),
                "shock": _law_from(shock, "generator.shock"),
            }
        elif family == "centered_partial_sum":
            # the config spelling of ``centered(inner spec)``
            inner = d.get("inner")
            if not isinstance(inner, dict):
                raise PreconditionError("generator.inner", "required")
            return gen.centered(build_generator_spec({**inner, "horizon": horizon}), offset)
        elif family == "adversarial_sign_flip":
            fields = {"law": _law_from(d, "generator") if "law" in d else gen.rademacher()}
        else:
            raise PreconditionError("generator.family", f"unknown family {family!r}")
        return gen.GeneratorSpec(family, horizon, offset=offset, **fields)
    except ValueError as exc:
        if isinstance(exc, PreconditionError):
            raise
        raise PreconditionError("generator", str(exc)) from exc


def _step_count(d: dict, name: str, field: str) -> int:
    value = read_param(d, name, int, prefix=field)
    if value < 1:
        raise PreconditionError(f"{field}.{name}", "must be >= 1")
    return value


def build_rule(d: dict, field: str = "stopping") -> StoppingRule:
    if not isinstance(d, dict):
        raise PreconditionError(field, "must be a table of dotted keys")
    kind = d.get("kind")
    if kind is None:
        raise PreconditionError(f"{field}.kind", "required")
    if kind == "first_passage_up":
        rule = first_passage_up(read_param(d, "threshold", float, prefix=field))
    elif kind == "first_passage_down":
        rule = first_passage_down(read_param(d, "threshold", float, prefix=field))
    elif kind == "deterministic":
        direction = d.get("direction", "nondecreasing")
        if direction not in ("nondecreasing", "nonincreasing", "none"):
            raise PreconditionError(
                f"{field}.direction", "must be nondecreasing, nonincreasing, or none"
            )
        rule = deterministic(_step_count(d, "step", field), direction)
    else:
        raise PreconditionError(
            f"{field}.kind",
            "must be first_passage_up, first_passage_down, or deterministic "
            "(user rules are library-only)",
        )
    if "cap" in d:
        rule = capped(rule, _step_count(d, "cap", field))
    return rule


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def _json_safe(x: float | None):
    if x is None:
        return None
    if isinstance(x, float) and not math.isfinite(x):
        return None  # strict JSON has no Infinity
    return x


def report_dict(config: ExperimentConfig, report, runtime_ms: float) -> dict:
    return {
        "experiment_id": config.experiment_id,
        "theorem_id": report.theorem_id,
        "generator": config.generator,
        "params": config.params,
        "mode": "exact" if config.mode == "exact" else f"monte_carlo({config.paths})",
        "seed": config.seed,
        "lhs": {"mean": report.lhs.mean, "stderr": _json_safe(report.lhs.stderr)},
        "rhs": report.rhs,
        "direction": report.direction,
        "z_margin": _json_safe(report.z_margin),
        "verdict": report.verdict,
        "exact": report.exact,
        "runtime_ms": runtime_ms,
    }


def _json(payload: dict) -> list[str]:
    """``payload`` as indented JSON text, in chunks for ``_write``."""
    return [json.dumps(payload, sort_keys=True, indent=2), "\n"]


def _write(out: str | None, chunks) -> None:
    """Write the strings ``chunks``, as they come, to the file ``out``
    (put in place once complete) or, without ``out``, to stdout."""
    if not out:
        sys.stdout.writelines(chunks)
        return
    tmp = out + ".tmp"
    with _io("out", out):
        with open(tmp, "w") as fh:
            fh.writelines(chunks)
        os.replace(tmp, out)


@contextlib.contextmanager
def _io(field: str, path: str | None = None):
    """Report an OSError in the block under ``field``, the argument that
    names the file or directory, as an error on ``path`` when given."""
    try:
        yield
    except OSError as exc:
        exc.filename, exc.filename2 = path or exc.filename, None
        raise PreconditionError(field, str(exc)) from None


def _error_exit(exc: ValueError, field: str) -> int:
    """Report a configuration or library error as JSON on stderr; exit 3.

    A PreconditionError names its own field; any other ValueError is
    reported under ``field``, the command's name for it (``_COMMANDS``).
    """
    if isinstance(exc, PreconditionError):
        payload = {"error": {"field": exc.name, "message": exc.message}}
    else:
        payload = {"error": {"field": field, "message": str(exc)}}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return 3


# ---------------------------------------------------------------------------
# Experiment execution
# ---------------------------------------------------------------------------


def run(config: ExperimentConfig, spec: gen.GeneratorSpec | None = None):
    """Dispatch one experiment to the registry, on the config's generator
    spec (built here unless given); returns (report, dict, extras)."""
    if spec is None and config.generator is not None:
        spec = build_generator_spec(config.generator)
    rule = build_rule(config.stopping) if config.stopping else None
    rule2 = build_rule(config.stopping2, "stopping2") if config.stopping2 else None
    t0 = time.perf_counter()
    report, results, extras = registry.verify_detailed(
        config.theorem_id,
        spec,
        rule=rule,
        rule2=rule2,
        params=config.params,
        mode=config.mode,
        paths=config.paths,
        seed=config.seed,
        tolerance_z=config.tolerance_z,
    )
    runtime_ms = (time.perf_counter() - t0) * 1000.0
    return report, report_dict(config, report, runtime_ms), extras


def _load_config(args, required: tuple) -> ExperimentConfig:
    """The config at ``--config`` with the command-line overrides applied;
    ``required`` names the top-level keys the command reads."""
    with _io("config"), open(args.config) as fh:
        doc = parse_config_text(fh.read())
    if getattr(args, "seed", None) is not None:
        doc["seed"] = args.seed
    if getattr(args, "paths", None) is not None:
        doc["paths"] = args.paths
    return config_from_dict(doc, required)


def _csv_rows(spec: gen.GeneratorSpec, n_paths: int, seed: int):
    """The paths as ``path_id,step,value`` lines, sampled chunk by chunk."""
    yield "path_id,step,value\n"
    pid = 0
    for block in iter_chunks(gen.sample_paths, spec, n_paths, seed):
        for row in block:
            for step, value in enumerate(row, start=1):
                yield f"{pid},{step},{_fmt(value)}\n"
            pid += 1


def _cmd_verify(args, config: ExperimentConfig, spec: gen.GeneratorSpec | None) -> int:
    report, payload, extras = run(config, spec)
    _write(args.out, _json(payload))
    for name, extra in extras.items():
        z = "n/a" if extra.z_margin is None else _fmt(extra.z_margin)
        print(f"# {name}: {extra.verdict} (z_margin {z})", file=sys.stderr)
    if args.dump_paths and config.mode == "monte_carlo" and spec is not None:
        _write((args.out or "paths") + ".csv", _csv_rows(spec, config.paths, config.seed))
    return _EXIT[report.verdict]


def _cmd_check_demi(args, config: ExperimentConfig, spec: gen.GeneratorSpec | None) -> int:
    variant = read_param(config.params, "variant", str, "demimartingale")
    tid = registry.DEFINITION_IDS.get(variant)
    if tid is None:
        raise PreconditionError("params.variant", "demimartingale or demisubmartingale")
    return _cmd_verify(args, replace(config, theorem_id=tid), spec)


def _cmd_gen(args, config: ExperimentConfig, spec: gen.GeneratorSpec) -> int:
    if config.paths < 1:
        # the chunked dump never reaches generate()'s own check
        raise ValueError("paths must be >= 1")
    if args.dump_paths:
        _write(args.out, _csv_rows(spec, config.paths, config.seed))
        return 0
    paths = gen.generate(spec, config.paths, config.seed)
    s_n = summarize(paths[:, -1])
    print(f"generator_id: {spec.generator_id}")
    print(f"paths: {paths.shape[0]}")
    print(f"horizon: {paths.shape[1]}")
    print(f"E[S_n]: {_fmt(s_n.mean)} +- {_fmt(s_n.stderr)}")
    print(f"V_n (exact): {_fmt(gen.v_n(spec))}")
    return 0


def _cmd_stop(args, config: ExperimentConfig, spec: gen.GeneratorSpec) -> int:
    rule = build_rule(config.stopping)
    paths = gen.generate(spec, config.paths, config.seed)
    tau = rule.tau_batch(paths)
    stopped = tau != -1
    print(f"rule: {rule.label}")
    print(f"P(stopped): {_fmt(stopped.mean())}")
    if stopped.any():
        t = tau[stopped]
        s_tau = paths[np.flatnonzero(stopped), t - 1]
        print(f"E[tau | stopped]: {_fmt(t.mean())}")
        print(f"E[S_tau | stopped]: {_fmt(s_tau.mean())}")
    return 0


_BOUNDS = {
    "phi": (bounds.phi, ("u",)),
    "phi_bound": (bounds.phi_bound, ("u",)),
    "h1": (bounds.h1, ("u",)),
    "h1_lower": (bounds.h1_lower, ("u",)),
    "psi_sup": (bounds.psi_sup, ("t", "V", "C")),
    "mgf_log_bound": (bounds.mgf_log_bound, ("lambda", "C", "EX2")),
    "bernstein_tail": (bounds.bernstein_tail, ("t", "V", "C")),
    "doob_max_bound": (bounds.doob_max_bound, ("ES1", "lambda")),
    "lp_max_bound": (bounds.lp_max_bound, ("p", "M", "ES1")),
    "moment_bound": (bounds.moment_bound, ("p", "V")),
}


def _cmd_bound(args, config: None, spec: None) -> int:
    name = args.name
    if name not in _BOUNDS:
        raise PreconditionError("bound", f"unknown bound {name!r}")
    fn, argnames = _BOUNDS[name]
    kv = {}
    for pair in args.values:
        key, _, value = pair.partition("=")
        kv[key] = value
    for a in argnames:
        if a not in kv:
            raise PreconditionError(a, "required")
    try:
        fargs = [float(kv[a]) for a in argnames]
        value = fn(*fargs)
    except ValueError as exc:
        raise PreconditionError(name, str(exc)) from None
    inputs = " ".join(f"{a}={_fmt(v)}" for a, v in zip(argnames, fargs))
    print(f"{name}({inputs}) = {_fmt(value)}")
    return 0


def _cmd_oracle(args, config: ExperimentConfig, spec: gen.GeneratorSpec) -> int:
    chain = gen.to_chain(spec)
    t = read_param(config.params, "t", float, None)

    def moments(p: np.ndarray) -> np.ndarray:
        s_n = p[:, -1]
        rows = [s_n, np.abs(s_n), s_n**2, np.ones(p.shape[0])]
        if t is not None:
            rows.append(s_n >= t)
        return np.array(rows, dtype=np.float64)

    # every statistic reads S_n alone
    checks = 4 if t is None else 5
    means = registry.expectations(chain, moments, checks, "exact", terminal_only=True)
    stats = [s.mean for s in means]
    print(f"outcomes: {chain.outcome_count}")
    print(f"total_probability: {_fmt(stats[3])}")
    print(f"E[S_n]: {_fmt(stats[0])}")
    print(f"E[|S_n|]: {_fmt(stats[1])}")
    print(f"E[S_n^2]: {_fmt(stats[2])}")
    if t is not None:
        print(f"P(S_n >= {_fmt(t)}): {_fmt(stats[4])}")
    return 0


def _cmd_clt(args, config: ExperimentConfig, spec: gen.GeneratorSpec) -> int:
    n_grid = read_param(config.params, "n_grid", _list_of(int))
    diags = asymptotics.clt_diagnose(spec, n_grid, config.paths, config.seed)
    lines = ["n,sigma_n,V_n,ratio_cubed,ks_distance,ecf_distance,sigma_exact\n"]
    for d in diags:
        lines.append(
            f"{d.n},{_fmt(d.sigma_n)},{_fmt(d.V_n)},{_fmt(d.ratio_cubed)},"
            f"{_fmt(d.ks_distance)},{_fmt(d.ecf_distance)},{int(d.sigma_exact)}\n"
        )
    _write(args.out, lines)
    trend = asymptotics.ratio_cubed_decreasing(diags)
    print(f"# ratio_cubed decreasing along grid: {str(trend).lower()}", file=sys.stderr)
    return 0


def _cmd_slln(args, config: ExperimentConfig, spec: gen.GeneratorSpec) -> int:
    r = read_param(config.params, "r", float)
    epsilon = read_param(config.params, "epsilon", float)
    n_grid = read_param(config.params, "n_grid", _list_of(int))
    diag = asymptotics.complete_convergence_diagnose(
        spec,
        r,
        epsilon,
        n_grid,
        config.paths,
        config.seed,
        tolerance_z=config.tolerance_z,
    )
    lines = ["n,tail,stderr,envelope,vn_over_nr,partial_sum,within_envelope,exact\n"]
    for rec, ps in zip(diag.tail_estimates, diag.partial_sum):
        lines.append(
            f"{rec.n},{_fmt(rec.estimate)},{_fmt(rec.stderr)},{_fmt(rec.envelope)},"
            f"{_fmt(rec.vn_over_nr)},{_fmt(ps)},{int(rec.within_envelope)},{int(rec.exact)}\n"
        )
    _write(args.out, lines)
    print(f"# geometric_fit slope: {_fmt(diag.geometric_fit)}", file=sys.stderr)
    return _EXIT[PASS if all(r.within_envelope for r in diag.tail_estimates) else FAIL]


def run_suite(directory: str, out: str | None = None) -> int:
    """Run every *.cfg experiment in a directory; aggregate verdicts."""
    with _io("directory"):
        names = sorted(f for f in os.listdir(directory) if f.endswith(".cfg"))
    rows = []
    seen_ids = set()
    for name in names:
        t0 = time.perf_counter()
        try:
            with open(os.path.join(directory, name)) as fh:
                config = config_from_dict(parse_config_text(fh.read()))
            if config.experiment_id in seen_ids:
                raise PreconditionError("experiment_id", f"duplicate {config.experiment_id!r}")
            seen_ids.add(config.experiment_id)
            _, payload, _ = run(config)
            keys = ("experiment_id", "theorem_id", "verdict", "z_margin", "runtime_ms")
            rows.append({**{key: payload[key] for key in keys}, "file": name})
        except (ValueError, OSError) as exc:
            rows.append(
                {
                    "experiment_id": name,
                    "theorem_id": None,
                    "verdict": "ERROR",
                    "z_margin": None,
                    "runtime_ms": (time.perf_counter() - t0) * 1000.0,
                    "file": name,
                    "message": str(exc),
                }
            )
    counts = dict.fromkeys(_EXIT, 0)
    for row in rows:
        counts[row["verdict"]] += 1
        z = "n/a" if row["z_margin"] is None else _fmt(row["z_margin"])
        print(
            f"{row['verdict']:<12} {str(row['theorem_id'] or '-'):<24} "
            f"z={z:<16} {row['experiment_id']}"
        )
    print(
        f"# {counts['PASS']} pass, {counts['FAIL']} fail, "
        f"{counts['INCONCLUSIVE']} inconclusive, {counts['ERROR']} error"
    )
    if out:
        _write(out, _json({"experiments": rows, "counts": counts}))
    return next((code for outcome, code in _EXIT.items() if counts[outcome]), 0)


def _cmd_suite(args, config: None, spec: None) -> int:
    return run_suite(args.directory, args.out)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


_OPTIONS = {
    "--seed": {"type": int, "default": None, "help": "override config seed"},
    "--paths": {"type": int, "default": None, "help": "override config paths"},
    "--out": {"default": None, "help": "output file"},
    "--dump-paths": {"action": "store_true", "help": "write per-path CSV"},
    "name": {"help": "bound name, e.g. bernstein_tail"},
    "values": {"nargs": "*", "help": "key=value inputs"},
    "directory": {"help": "directory of *.cfg experiments"},
}
_DUMP_OPTIONS = ("--seed", "--paths", "--out", "--dump-paths")

# each command: its handler, the arguments it reads besides --config, the
# top-level keys it requires of its --config (None: it takes none), and
# the field of a ValueError that names none
_COMMANDS = {
    "verify": (_cmd_verify, _DUMP_OPTIONS, ("theorem_id", "seed"), "experiment"),
    "check-demi": (_cmd_check_demi, _DUMP_OPTIONS, ("seed",), "experiment"),
    "gen": (_cmd_gen, _DUMP_OPTIONS, ("seed", "generator"), "gen"),
    "stop": (_cmd_stop, ("--seed", "--paths"), ("seed", "generator", "stopping"), "stop"),
    "oracle": (_cmd_oracle, (), ("generator",), "generator"),
    "clt": (_cmd_clt, ("--seed", "--paths", "--out"), ("seed", "generator"), "clt"),
    "slln": (_cmd_slln, ("--seed", "--paths", "--out"), ("seed", "generator"), "slln"),
    "bound": (_cmd_bound, ("name", "values"), None, "bound"),
    "suite": (_cmd_suite, ("directory", "--out"), None, "directory"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="demimart",
        description="verification harness for demimartingale inequalities",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, options, required, _) in _COMMANDS.items():
        p = sub.add_parser(name)
        if required is not None:
            p.add_argument("--config", required=True, help="experiment config file")
        for option in options:
            p.add_argument(option, **_OPTIONS[option])
    args = parser.parse_args(argv)
    handler, _, required, field = _COMMANDS[args.command]
    # the one error boundary: a ValueError anywhere below exits 3, never 1
    try:
        config = spec = None
        if required is not None:
            config = _load_config(args, required)
            spec = None if config.generator is None else build_generator_spec(config.generator)
        return handler(args, config, spec)
    except ValueError as exc:
        return _error_exit(exc, field)


if __name__ == "__main__":
    sys.exit(main())
