"""Command line interface and verification harness.

`verify` runs identity checkers over a seeded (m, n, trial) grid and emits
a deterministic machine-readable report: one JSON line per failure, whose
`inputs` is exactly the JSON whose sha256 prefix is its `input_digest`,
then a summary object; a passing trial builds, formats and hashes nothing.
`eval` applies a single operation to JSON matrix files, `paths` counts
non-intersecting lattice path families three independent ways, and `schur`
prints a skew Schur polynomial in canonical text form.

Reports are byte-stable: equal configs produce identical bytes.
Random inputs are derived per (identity, m, n, trial) by hashing the seed
with those coordinates; filtering the suite never shifts other trials.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import asdict, dataclass
from itertools import product
from typing import Callable, Tuple

import click

from .combinat import IndexSet
from .errors import ConfigError, MinorSumError, UnknownIdentityError
from .identities import (
    IDENTITY_IDS,
    check_ab,
    check_ab2,
    check_byun,
    check_cauchy_binet_pf,
    check_closed_forms,
    check_cor7,
    check_det_pf_square,
    check_iswa,
    check_lemma_aux,
    check_lemma_iswa,
    check_main1,
    check_main2,
    check_okada,
    check_rank1,
    f_AB,
    g_AB,
    minor_sum,
)
from .matrix import (
    Matrix,
    _wrap,
    det,
    matrix_from_json_dict,
    pfaffian,
)
from .paths import NE_STEPS, PathProblem, count_free_routes
from .ring import PolynomialRing, ZZ
from .symfun import skew_schur, xy_ring


# ---------------------------------------------------------------------------
# configuration and report types


@dataclass(frozen=True)
class VerifyConfig:
    """A verification run: which identities, over which grid, how seeded."""

    identities: Tuple[str, ...]
    ms: Tuple[int, ...]
    ns: Tuple[int, ...]
    trials: int = 20
    seed: int = 0
    ring: str = "int"
    bound: int = 5

    def __post_init__(self):
        object.__setattr__(self, "identities", tuple(self.identities))
        object.__setattr__(self, "ms", tuple(self.ms))
        object.__setattr__(self, "ns", tuple(self.ns))
        for ident in self.identities:
            if ident not in _REGISTRY:
                raise UnknownIdentityError(ident, IDENTITY_IDS)
        if not self.identities:
            raise ConfigError("no identities selected")
        if not self.ms or not self.ns:
            raise ConfigError("m and n ranges must be non-empty")
        for name, values in (("identity", self.identities), ("m", self.ms), ("n", self.ns)):
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise ConfigError(f"{name} {repeated[0]!r} is given more than once")
        for name, values in (("m", self.ms), ("n", self.ns), ("trials", (self.trials,)),
                             ("bound", (self.bound,)), ("seed", (self.seed,))):
            for v in values:
                if isinstance(v, bool) or not isinstance(v, int):
                    raise ConfigError(f"{name} must be an integer, got {v!r}")
                if v < 1 and name != "seed":
                    raise ConfigError(f"{name} must be >= 1, got {v}")
        if self.ring not in ("int", "poly"):
            raise ConfigError(f"ring must be 'int' or 'poly', got {self.ring!r}")

    def echo(self) -> dict:
        return asdict(self)


@dataclass
class RunReport:
    """Outcome of run_verify; identical configs give identical reports."""

    config: dict
    failures: list
    summary: dict

    def to_json_lines(self) -> str:
        lines = [_json_line(f) for f in self.failures]
        lines.append(_json_line({"config": self.config, "summary": self.summary}))
        return "\n".join(lines) + "\n"


def _json_line(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _echo(message: str, nl: bool = True) -> None:
    # click.echo without a file caches its stream wrapper per stdout object,
    # keyed weakly but with the stream itself as the value, so each stream
    # that stdout is redirected to in-process (tests, embedding callers)
    # would stay alive for the life of the process
    click.echo(message, nl=nl, file=sys.stdout)


def _trial_rng(seed: int, identity_id: str, m: int, n: int, trial: int) -> random.Random:
    key = f"{seed}:{identity_id}:{m}:{n}:{trial}".encode()
    return random.Random(int.from_bytes(hashlib.sha256(key).digest()[:16], "big"))


# ---------------------------------------------------------------------------
# input builders


def _inputs(mode: str, rng, bound: int, declared) -> list:
    """The inputs of one trial, declared in draw order as (prefix, kind,
    *sizes): a "matrix" (rows, cols), a "skew" matrix or a "vector" (size),
    a "subset" (k, n) of k of 1..n from `rng.sample`, or the trial's
    "ring", which draws nothing.  In "int" mode the entries are drawn from
    [-bound, bound] in that order, row-major, a skew matrix's upper
    triangle only.  In "poly" mode each is a fresh variable
    (<prefix><i>_<j> for a matrix entry, <prefix><i> for a vector entry) of
    one shared ring, which orders its variables the same way.
    """
    cells = {
        "matrix": lambda rows, cols: product(range(rows), range(cols)),
        "skew": lambda size: ((i, j) for i in range(size) for j in range(i + 1, size)),
        "vector": lambda size: ((i,) for i in range(size)),
    }
    if mode == "poly":
        names = [
            p + "_".join(str(k + 1) for k in cell)
            for p, kind, *sizes in declared
            if kind in cells
            for cell in cells[kind](*sizes)
        ]
        ring = PolynomialRing(tuple(names))
        gens = iter(ring.gens())
        fresh = lambda: next(gens)
    else:
        ring = ZZ
        fresh = lambda: rng.randint(-bound, bound)
    out = []
    for _, kind, *sizes in declared:
        if kind in ("matrix", "skew"):
            rows, cols = sizes * 2 if kind == "skew" else sizes
            entries = [[ring.zero] * cols for _ in range(rows)]
            for i, j in cells[kind](*sizes):
                entries[i][j] = fresh()
            M = _wrap(ring, map(tuple, entries), cols)
            out.append(M - M.T if kind == "skew" else M)
        elif kind == "vector":
            out.append([fresh() for _ in range(*sizes)])
        elif kind == "subset":
            k, n = sizes
            out.append(IndexSet(n, rng.sample(range(1, n + 1), k)))
        else:  # "ring"
            out.append(ring)
    return out


# ---------------------------------------------------------------------------
# identity registry: how to generate inputs and run each checker


@dataclass(frozen=True)
class _RegistryEntry:
    run: Callable  # (mode, rng, m, n, bound, trial) -> IdentityReport
    applicable: Callable  # (m, n, cfg) -> bool


def _runner(check: Callable, *declared) -> Callable:
    """The runner of `check` on its inputs, declared in draw order for
    `_inputs` as (prefix, kind, shape), the shape naming the sizes by m and
    n: "mn" is an m x n matrix or an m-subset of 1..n, "n" a size-n skew
    matrix or vector.  It returns the check's report alone."""

    def run(mode, rng, m, n, bound, trial):
        size = {"m": m, "n": n}
        specs = [(p, kind, *(size[c] for c in shape)) for p, kind, shape in declared]
        return check(*_inputs(mode, rng, bound, specs))

    return run


_A, _B, _X = ("a", "matrix", "mn"), ("b", "matrix", "mn"), ("x", "matrix", "nn")
_Y_M, _Y_N, _U = ("y", "skew", "m"), ("y", "skew", "n"), ("u", "vector", "m")
_I, _D, _RING = ("i", "subset", "mn"), ("d", "vector", "n"), ("", "ring", "")
_RANK1 = _runner(check_rank1, _Y_M, _U, ("v", "vector", "m"))
_RANK1_EQUAL = _runner(lambda Y, a: check_rank1(Y, a, a), _Y_M, _U)


def _run_rank1(mode, rng, m, n, bound, trial):
    # every fifth integer trial exercises the equal-vector specialization
    equal = mode == "int" and trial % 5 == 4
    return (_RANK1_EQUAL if equal else _RANK1)(mode, rng, m, n, bound, trial)


def _app_any(m, n, cfg):
    return True


def _app_fits(m, n, cfg):
    return m <= n


def _app_even_fits(m, n, cfg):
    return m % 2 == 0 and m <= n


def _app_odd_fits(m, n, cfg):
    return m % 2 == 1 and m <= n


def _app_square_only(m, n, cfg):
    # the input is m x m; run once per m at the smallest configured n
    return n == min(cfg.ns)


def _app_even_square_only(m, n, cfg):
    return m % 2 == 0 and n == min(cfg.ns)


def _app_diagonal_only(m, n, cfg):
    # the input is an n-vector; run once per n at the smallest configured m.
    # The exhaustive pair scan grows like 4^n, so cap n (tighter for the
    # symbolic ring, where every minor is a polynomial determinant).
    cap = 4 if cfg.ring == "poly" else 6
    return m == min(cfg.ms) and n <= cap


_REGISTRY = {
    "okada": _RegistryEntry(_runner(check_okada, _A), _app_any),
    "byun": _RegistryEntry(_runner(check_byun, _A), _app_any),
    "main1": _RegistryEntry(_runner(check_main1, _A, _B, _X), _app_fits),
    "main2": _RegistryEntry(_runner(check_main2, _A, _B, _X), _app_even_fits),
    "rank1": _RegistryEntry(_run_rank1, _app_square_only),
    "lemma-aux": _RegistryEntry(_runner(check_lemma_aux, _A, _B, _X), _app_odd_fits),
    "iswa": _RegistryEntry(_runner(check_iswa, _A, _Y_N), _app_even_fits),
    "lemma-iswa": _RegistryEntry(_runner(check_lemma_iswa, _Y_N, _I), _app_even_fits),
    "ab": _RegistryEntry(_runner(check_ab, _A, _B), _app_fits),
    "ab2": _RegistryEntry(_runner(check_ab2, _A, _B), _app_even_fits),
    "cor7": _RegistryEntry(_runner(check_cor7, _A, _X), _app_even_fits),
    "closed-forms": _RegistryEntry(_runner(check_closed_forms, _RING, _D), _app_diagonal_only),
    "det-pf-square": _RegistryEntry(_runner(check_det_pf_square, _Y_M), _app_even_square_only),
    "cauchy-binet-pf": _RegistryEntry(_runner(check_cauchy_binet_pf, _A, _B), _app_even_fits),
}

assert tuple(_REGISTRY) == IDENTITY_IDS


def run_verify(cfg: VerifyConfig) -> RunReport:
    """Run the configured identity suite; deterministic given the config.

    Trials run one at a time, and a passed report is dropped as soon as it
    is counted."""
    failures = []
    per_identity: dict = {}
    for ident in cfg.identities:
        entry = _REGISTRY[ident]
        for m, n in product(cfg.ms, cfg.ns):
            if not entry.applicable(m, n, cfg):
                continue
            for trial in range(cfg.trials):
                rng = _trial_rng(cfg.seed, ident, m, n, trial)
                report = entry.run(cfg.ring, rng, m, n, cfg.bound, trial)
                stats = per_identity.setdefault(ident, {"trials": 0, "failed": 0})
                stats["trials"] += 1
                if report.passed:
                    continue
                stats["failed"] += 1
                failures.append(
                    {
                        "identity": ident,
                        "m": m,
                        "n": n,
                        "trial": trial,
                        "input_digest": report.input_digest,
                        "lhs": report.lhs,
                        "rhs": report.rhs,
                        "details": report.details,
                        "inputs": report.inputs,
                    }
                )
    summary = {
        "total_trials": sum(s["trials"] for s in per_identity.values()),
        "failures": len(failures),
        "per_identity": per_identity,
    }
    return RunReport(config=cfg.echo(), failures=failures, summary=summary)


# ---------------------------------------------------------------------------
# click commands


@click.group()
def main():
    """Exact minor-summation and Pfaffian identity toolkit."""


def _parse_range(text: str, flag: str) -> Tuple[int, ...]:
    values = []
    try:
        for chunk in text.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            if ".." in chunk:
                lo, hi = chunk.split("..", 1)
                values.extend(range(int(lo), int(hi) + 1))
            else:
                values.append(int(chunk))
    except ValueError:
        raise click.BadParameter(
            f'expected an integer, range "lo..hi", or comma list; got {text!r}',
            param_hint=flag,
        )
    return tuple(values)


@main.command()
@click.option("--identity", default="all", help='Identity id, comma list, or "all".')
@click.option("--m", "m_range", default="1..4", help='m values: "3", "1..4", or "2,4".')
@click.option("--n", "n_range", default="1..5", help='n values, same syntax as --m.')
@click.option("--trials", default=20, show_default=True, help="Trials per (identity, m, n).")
@click.option("--seed", default=0, show_default=True, help="Base seed for input derivation.")
@click.option("--ring", default="int", type=click.Choice(["int", "poly"]), show_default=True,
              help="Integer entries, or fully generic polynomial entries.")
@click.option("--bound", default=5, show_default=True, help="Integer entries lie in [-bound, bound].")
@click.option("--out", "out_path", default=None, type=click.Path(dir_okay=False),
              help="Write the JSON-lines report here instead of stdout.")
def verify(identity, m_range, n_range, trials, seed, ring, bound, out_path):
    """Check identities on seeded random or generic inputs over an (m, n) grid.

    Emits one JSON line per failing trial (inputs included for replay) and a
    final summary object.  Exit status is 0 exactly when nothing failed.
    """
    if identity == "all":
        ids = IDENTITY_IDS
    else:
        ids = tuple(s.strip() for s in identity.split(",") if s.strip())
    try:
        cfg = VerifyConfig(
            identities=ids,
            ms=_parse_range(m_range, "--m"),
            ns=_parse_range(n_range, "--n"),
            trials=trials,
            seed=seed,
            ring=ring,
            bound=bound,
        )
        report = run_verify(cfg)
    except MinorSumError as exc:
        raise click.ClickException(str(exc))
    payload = report.to_json_lines()
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(payload)
        _echo(
            f"{report.summary['total_trials']} trials, "
            f"{report.summary['failures']} failures -> {out_path}"
        )
    else:
        _echo(payload, nl=False)
    if report.summary["failures"]:
        raise SystemExit(1)


def _read_json(path: str):
    """The JSON value in the file at `path`.  A file that is not UTF-8 text
    or not JSON fails with its path and where the error is."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except UnicodeDecodeError as exc:
        raise click.ClickException(
            f"{path}: not UTF-8 text at byte {exc.start}: {exc.reason}"
        ) from None
    except json.JSONDecodeError as exc:
        raise click.ClickException(
            f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}"
        ) from None


def _load_matrix(path: str) -> Matrix:
    data = _read_json(path)
    try:
        return matrix_from_json_dict(data)
    except MinorSumError as exc:
        raise click.ClickException(f"{path}: {exc}") from None


@main.command("eval")
@click.argument("operation", type=click.Choice(["pf", "det", "minorsum", "f", "g"]))
@click.argument("files", nargs=-1, type=click.Path(exists=True, dir_okay=False))
def eval_cmd(operation, files):
    """Apply one operation to JSON matrix files.

    pf/det/minorsum take one matrix; f and g take three (A, B, X) and
    evaluate the half-size or bordered double minor sums.
    """
    arity = 3 if operation in ("f", "g") else 1
    if len(files) != arity:
        raise click.UsageError(
            f"{operation} takes {arity} matrix file{'s' if arity > 1 else ''}, got {len(files)}"
        )
    mats = [_load_matrix(path) for path in files]
    try:
        if operation == "pf":
            value = pfaffian(mats[0])
        elif operation == "det":
            value = det(mats[0])
        elif operation == "minorsum":
            value = minor_sum(mats[0])
        elif operation == "f":
            value = f_AB(mats[0], mats[1], mats[2])
        else:
            value = g_AB(mats[0], mats[1], mats[2])
    except MinorSumError as exc:
        raise click.ClickException(str(exc))
    _echo(mats[0].ring.format(value))


@main.command("paths")
@click.argument("problem_file", type=click.Path(exists=True, dir_okay=False))
def paths_cmd(problem_file):
    """Count non-intersecting path families with free endpoints.

    The problem file holds {"starts": [[x,y],...], "ends": [[x,y],...],
    "choose": m}; output reports the count and the value of each route
    that ran (brute-force enumeration only within its guard).
    """
    data = _read_json(problem_file)
    if not isinstance(data, dict):
        raise click.ClickException(f"{problem_file}: expected a JSON object")
    try:
        problem = PathProblem(
            starts=data.get("starts", ()),
            candidate_ends=data.get("ends", ()),
            choose=data.get("choose"),
            steps=data.get("steps", NE_STEPS),
        )
        routes = count_free_routes(problem)
    except MinorSumError as exc:
        raise click.ClickException(str(exc))
    # count_free_routes already asserted that the routes agree
    _echo(_json_line({"count": routes["okada"], "routes": routes}))


def _parse_partition(text: str, flag: str) -> Tuple[int, ...]:
    parts = []
    try:
        for chunk in text.split(","):
            chunk = chunk.strip()
            if chunk:
                parts.append(int(chunk))
    except ValueError:
        raise click.BadParameter(
            f"expected a comma-separated partition, got {text!r}", param_hint=flag
        )
    return tuple(parts)


@main.command()
@click.option("--lam", required=True, help='Outer partition, e.g. "3,1".')
@click.option("--mu", default="", help="Inner partition (default: empty).")
@click.option("--nvars", default=3, show_default=True, help="Number of variables.")
def schur(lam, mu, nvars):
    """Print a skew Schur polynomial in canonical text form."""
    if nvars < 1:
        raise click.BadParameter("need at least one variable", param_hint="--nvars")
    ring, xs, _ = xy_ring(nvars, 0)
    try:
        value = skew_schur(
            ring, _parse_partition(lam, "--lam"), _parse_partition(mu, "--mu"), xs
        )
    except MinorSumError as exc:
        raise click.ClickException(str(exc))
    _echo(ring.format(value))


if __name__ == "__main__":
    main()
