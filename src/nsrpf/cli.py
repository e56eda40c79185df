"""Batch front-end: config in, certification + solves + verifier artifacts out.

Subcommands
-----------
run <config>      full pipeline: certify, solve, verify, export
certify <config>  certification and the constants ledger only
oracle <config>   dense-product cross-check of the solver (matrix chains)

Config files use INI syntax with the sections [system], [cone], [solver],
[outputs], [checks]; see the shipped configs/ directory for examples.  The
output directory can be overridden with the NSRPF_OUTDIR environment
variable.  Exit codes: 0 all requested checks passed, 1 a verifier failed,
2 config error (also for a key the run does not read), 3 certification
failure (the message names the axiom).

Artifacts: lambda.csv (n, lambda, k_star, residual), m_<n>.csv and
h_<n>.csv per reported index (an earlier run's m_<n>.csv or h_<n>.csv of
an index this run does not report is removed), rates.csv (n, k,
error_lambda, error_m, error_h), constants.txt (flat name = value ledger),
report.txt (one PASS/FAIL line per check).  Numbers are written with 17
significant digits, and nothing a run samples comes from a random
generator: the cone certificate and the verifiers draw named members of the
enumerated sample family (cones.family_rows), each from its own range of
member ids, and [solver] seed, an integer in [0, 2^32), picks the
cone_contraction verifier's range.  A config with random coefficients (a
matrix chain's seed, a circle's random modes) draws them once, when it is
parsed, from the seed's named streams of the in-package counter-based
mixer (systems._draw), without importing numpy.random.  So a rerun of a
config reproduces every file byte for byte.  A refused invariant chain
(eigenrelation residuals at or above its tolerance, or a window too short
for one index) is a FAIL line of report.txt, and every other artifact is
still written.  constants.txt names what set the certified Delta on its
Delta_source line, and the cone_contraction line of report.txt the member
ids its pairs were drawn from.

Every CSV has a per-column row template, "%d" for the integer columns (n,
index, k, k_star, which is -1 where no k* was found) and "%.17g" for every
float, and its body is written in blocks of 256 rows, each one ``%`` of that
template repeated once per row over the block's row-major cell values
(``_write_csv``); rates.csv takes its cells from the report's record
columns, one block at a time.  m_<n>.csv and h_<n>.csv format
the vector's ``tolist()`` through one body template per vector length with
the point indices baked in, which gives the same bytes.  The scalar rule ``_fmt`` of
constants.txt and report.txt uses the same "%.17g".  A value the config
admits but the chain does not (an odd grid, a negative matrix entry, zero
states, a potential whose exp overflows or vanishes) is a config error
naming [system].

Every file is written by ``_atomic_write`` at the os level: a hidden temp
file in the target directory, created exclusively with mode 0600 (under the
umask) and without following a symlink, filled by ``os.write`` and renamed
over the target, one chunk after another for a body written in blocks; on
any failure the temp file is removed.  ``nsrpf run``
writes one m_<n>.csv and h_<n>.csv per reported index
(``_write_run_artifacts``), so on small chains the cost of this layer is the
kernel's file creation, not the float formatting.
"""
from __future__ import annotations

import argparse
import configparser
import itertools
import math
import os
import re
import sys
from dataclasses import dataclass

import numpy as np

from .cones import ConeParams
from .errors import CertificationError, ConvergenceError, DomainError, StructuralError
from .hypotheses import (certify_cone_conditions, certify_map_hypotheses,
                         default_Q, derive_constants)
from .rpf import (build_invariant_chain, solve_backward, solve_forward,
                  verify_cone_contraction, verify_eigen_relations,
                  verify_exponential_rates, verify_independence, verify_uniqueness)
from .systems import (CircleMapSpec, MatrixChainSpec, build_circle_chain,
                      build_matrix_chain, oracle_rpf_chain)

KNOWN_CHECKS = ("eigen", "rates", "uniqueness", "independence",
                "invariant_chain", "cone_contraction")


@dataclass
class RunConfig:
    kind: str
    system: object
    q_mode: str          # "auto" or a float literal
    delta: float
    beta: float
    tol: float
    solver_seed: int
    out_dir: str
    checks: list


class ConfigError(Exception):
    pass


class _Config(configparser.ConfigParser):
    """INI parser that remembers every (section, key) the run looks up."""
    looked_up = frozenset()

    def has_option(self, section, option):
        self.looked_up |= {(section, option)}
        return super().has_option(section, option)


def _get(cp, section, key, conv, default=None):
    if not cp.has_option(section, key):
        if default is not None:
            return default
        raise ConfigError(f"[{section}].{key}: missing required key")
    raw = cp.get(section, key)
    try:
        return conv(raw)
    except (ValueError, TypeError) as e:
        raise ConfigError(f"[{section}].{key}: {e}") from e


def _window(raw: str) -> tuple[int, int]:
    parts = raw.split()
    if len(parts) != 2:
        raise ValueError("window needs two integers, e.g. '-50 50'")
    lo, hi = int(parts[0]), int(parts[1])
    if hi <= lo:
        raise ValueError("window upper end must exceed the lower end")
    return lo, hi


def _system_spec(cp, kind: str, delta: float):
    """The [system] spec; the spec constructors raise the package's typed errors.
    A circle spec checks the [cone] delta against its maps."""
    window = _get(cp, "system", "window", _window)
    if kind == "matrix":
        d = _get(cp, "system", "d", int, 2)
        if cp.has_option("system", "matrix"):
            try:
                m = np.array(cp.get("system", "matrix").split(), dtype=float)
                m = m.reshape(d, d)
            except ValueError as e:
                raise ConfigError(f"[system].matrix: {e}") from e
            return MatrixChainSpec.stationary(m, window)
        return MatrixChainSpec.random(
            d=d, window=window,
            low=_get(cp, "system", "entry_low", float, 1.0),
            high=_get(cp, "system", "entry_high", float, 2.0),
            seed=_get(cp, "system", "seed", int, 0))
    if kind == "circle":
        return CircleMapSpec.make(
            N=_get(cp, "system", "n_grid", int, 1024), window=window,
            eps=_get(cp, "system", "eps", float, 0.05),
            eps_mode=_get(cp, "system", "eps_mode", str, "alternating"),
            a=_get(cp, "system", "a", float, 0.1),
            a_mode=_get(cp, "system", "a_mode", str, "sin"),
            b=_get(cp, "system", "b", float, 0.0),
            b_mode=_get(cp, "system", "b_mode", str, "constant"),
            delta=delta,
            seed=_get(cp, "system", "seed", int, 0))
    raise ConfigError(f"[system].kind: unknown kind {kind!r}")


def parse_config(path: str) -> RunConfig:
    cp = _Config(inline_comment_prefixes=(";", "#"))
    read = cp.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    kind = _get(cp, "system", "kind", str)
    delta = _get(cp, "cone", "delta", float, 0.2 if kind == "circle" else 0.5)
    try:
        system = _system_spec(cp, kind, delta)
    except (DomainError, StructuralError) as e:
        raise ConfigError(f"[system]: {e}") from e
    q_mode = _get(cp, "cone", "q", str, "auto")
    if q_mode != "auto":
        try:
            q_ok = 0.0 < float(q_mode) < math.inf
        except ValueError:
            q_ok = False
        if not q_ok:
            raise ConfigError("[cone].q: must be 'auto' or a positive finite number")
    beta = _get(cp, "cone", "beta", float, 1.0)
    if not (0.0 < delta < math.inf and 0.0 < beta <= 1.0):
        raise ConfigError("[cone]: delta must be positive and finite and beta in (0, 1]")
    tol = _get(cp, "solver", "tol", float, 1e-10 if kind == "matrix" else 1e-6)
    if not 0.0 < tol < math.inf:
        raise ConfigError("[solver].tol: must be positive and finite")
    out_dir = _get(cp, "outputs", "dir", str, "out")
    checks = _get(cp, "checks", "run", str, "eigen").split()
    for c in checks:
        if c not in KNOWN_CHECKS:
            raise ConfigError(f"[checks].run: unknown check {c!r} "
                              f"(known: {', '.join(KNOWN_CHECKS)})")
    solver_seed = _get(cp, "solver", "seed", int, 123)
    if not 0 <= solver_seed < 2 ** 32:
        raise ConfigError("[solver].seed: must be an integer in [0, 2^32)")
    unread = [f"[{sec}].{key}" for sec in cp.sections() for key in cp[sec]
              if (sec, key) not in cp.looked_up]
    if unread:
        raise ConfigError(f"{', '.join(unread)}: unknown key")
    return RunConfig(kind=kind, system=system, q_mode=q_mode, delta=delta, beta=beta,
                     tol=tol, solver_seed=solver_seed,
                     out_dir=os.environ.get("NSRPF_OUTDIR") or out_dir, checks=checks)


# the one number rule: floats at 17 significant digits, integers in full
_INT, _FLOAT = "%d", "%.17g"
_LAMBDA_COLUMNS = (("n", _INT), ("lambda", _FLOAT), ("k_star", _INT),
                   ("residual", _FLOAT))
_M_COLUMNS = (("index", _INT), ("weight", _FLOAT))
_H_COLUMNS = (("index", _INT), ("value", _FLOAT))
_RATES_COLUMNS = (("n", _INT), ("k", _INT), ("error_lambda", _FLOAT),
                  ("error_m", _FLOAT), ("error_h", _FLOAT))
_ORACLE_COLUMNS = (("n", _INT), ("dlambda_rel", _FLOAT), ("dm_max", _FLOAT),
                   ("dh_max", _FLOAT))


def _fmt(x) -> str:
    return _FLOAT % x if isinstance(x, float) else str(x)


_TMP_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_NOFOLLOW
_TMP_SERIAL = itertools.count()   # with the pid, a temp name no live writer uses


def _write_all(fd: int, data: bytes):
    # a function of its own, so a chunk's bytes are freed before the next
    # chunk is formatted
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _atomic_write(path: str, text):
    """Write ``text``, a str or an iterable of str chunks written in order,
    to ``path`` through a hidden temp file in the same directory, renamed
    over ``path``.  The temp name is the pid plus a per-call serial,
    skipped while it exists (a stale file, or a symlink, which
    O_EXCL | O_NOFOLLOW never follows); the temp file is removed on any
    failure.  TypeError for a chunk that is not a str."""
    chunks = (text,) if isinstance(text, str) else text
    d = os.path.dirname(path) or "."
    for serial in _TMP_SERIAL:
        tmp = os.path.join(d, f".tmp-nsrpf-{os.getpid()}-{serial}")
        try:
            fd = os.open(tmp, _TMP_FLAGS, 0o600)
            break
        except FileExistsError:
            pass
    try:
        try:
            for chunk in chunks:
                _write_all(fd, str.encode(chunk))
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _interleave(*columns) -> list:
    """Row-major cell values of equally long columns, without a tuple per row."""
    flat = [None] * (len(columns) * len(columns[0]))
    for j, col in enumerate(columns):
        flat[j::len(columns)] = col
    return flat


_CSV_BLOCK_ROWS = 256   # rows per formatted block of a CSV body


def _write_csv(path: str, columns: tuple, values):
    """Write ``columns`` ((name, template) pairs) over the row-major cell
    ``values``: the body is written in blocks of _CSV_BLOCK_ROWS rows, each
    one ``%`` of the repeated row template, so no string of the whole body
    is ever held."""
    names, templates = zip(*columns)
    row = ",".join(templates) + "\n"
    cells = iter(values)

    def chunks():
        yield ",".join(names) + "\n"
        while block := tuple(itertools.islice(cells, _CSV_BLOCK_ROWS * len(columns))):
            yield (row * (len(block) // len(columns))) % block

    _atomic_write(path, chunks())


def _record_cells(records: np.ndarray):
    """Row-major cell values of the structured array ``records`` as Python
    scalars, converted one block of _CSV_BLOCK_ROWS records at a time."""
    for i in range(0, records.size, _CSV_BLOCK_ROWS):
        yield from itertools.chain.from_iterable(records[i:i + _CSV_BLOCK_ROWS].tolist())


def _vector_template(n: int) -> str:
    """Body template of an (index, value) CSV over a vector of n points: the
    indices baked in, one "%.17g" per value."""
    return "".join(f"{i},{_FLOAT}\n" for i in range(n))


def _failing(v) -> str:
    """The suffix of a FAIL line of a Verdict ``v``: each criterion whose
    largest value is not below v.tol, with the index where it is largest."""
    worst = [(name, max(values, key=values.get)) for name, values in v.criteria.items()
             if values and not v.worst(name) < v.tol]
    return "; failing: " + ", ".join(f"{name} at n = {n}" for name, n in worst) if worst else ""


def _graded(v, bound: str) -> str:
    """The detail of a Verdict ``v``: each criterion's largest value, the
    tolerance named ``bound`` and, on a FAIL, _failing(v)."""
    detail = (", ".join(f"max {name} {_fmt(v.worst(name))}" for name in v.criteria)
              + f" ({bound} {_fmt(v.tol)})")
    return detail if v.passed else detail + _failing(v)


def _certify(cfg: RunConfig):
    """Build the chain and certify; returns everything the solvers need."""
    params = ledger = None
    if cfg.kind == "matrix":
        seq = build_matrix_chain(cfg.system)
        # q = auto: default_Q's value at a zero threshold
        q = 1.0 if cfg.q_mode == "auto" else float(cfg.q_mode)
    else:
        seq = build_circle_chain(cfg.system)
        params = certify_map_hypotheses(seq)
        q = default_Q(params) if cfg.q_mode == "auto" else float(cfg.q_mode)
        try:
            ledger = derive_constants(params, q)
        except DomainError as e:   # Q at or below the cone threshold
            raise CertificationError("cone-threshold", str(e)) from e
    cone = ConeParams(Q=q, delta=cfg.delta, beta=cfg.beta)
    cert = certify_cone_conditions(seq, cone, params=params)
    return seq, cone, cert, ledger


def _delta_source(cert) -> str:
    """What set the certified Delta: its source, the members of a family
    pair and the index, e.g. "family pair (members 16777254, 16777255) at
    index -56"."""
    text = cert.Delta_source
    if cert.Delta_members is not None:
        text += " (members {}, {})".format(*cert.Delta_members)
    if cert.Delta_index is not None:
        text += f" at index {cert.Delta_index}"
    return text


def _constants_text(cfg, cone, cert, ledger) -> str:
    lines = [f"system = {cfg.kind}",
             f"seed = {getattr(cfg.system, 'seed', None)}",
             f"Q = {_fmt(cone.Q)}", f"delta = {_fmt(cone.delta)}",
             f"beta = {_fmt(cone.beta)}",
             f"tau = {cert.tau}",
             f"Delta_measured = {_fmt(cert.Delta_measured)}",
             f"Delta_source = {_delta_source(cert)}",
             f"block_factor = {_fmt(cert.block_factor)}",
             f"density_basis = {cert.density_basis}"]
    rcm = cert.rate_constants()
    lines += [f"gamma_measured = {_fmt(rcm.gamma)}",
              f"C1_measured = {_fmt(rcm.C1)}", f"C3_measured = {_fmt(rcm.C3)}"]
    if ledger is not None:
        p = ledger.params
        lines.append("# closed-form ledger from the certified map hypotheses")
        lines += [f"{k} = {_fmt(v)}" for k, v in (
            ("D", p.D), ("delta", p.delta), ("rho", p.rho), ("tau", p.tau), ("H", p.H),
            ("beta", p.beta), ("V", p.V), ("Q_threshold", ledger.Q_threshold),
            ("Q", ledger.Q), ("S", ledger.S), ("R", ledger.R), ("Delta", ledger.Delta),
            ("gamma", ledger.gamma), ("C1", ledger.C1), ("C3", ledger.C3))]
    return "\n".join(lines) + "\n"


def _make_out_dir(cfg: RunConfig) -> None:
    """Create the output directory ([outputs].dir or NSRPF_OUTDIR)."""
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"[outputs].dir: cannot create {cfg.out_dir!r}: {e.strerror}") from e


def cmd_certify(cfg: RunConfig) -> int:
    _, cone, cert, ledger = _certify(cfg)
    _make_out_dir(cfg)
    text = _constants_text(cfg, cone, cert, ledger)
    _atomic_write(os.path.join(cfg.out_dir, "constants.txt"), text)
    sys.stdout.write(text)
    return 0


_VECTOR_NAME = re.compile(r"[mh]_(0|-?[1-9][0-9]*)\.csv")   # f"m_{n}.csv", f"h_{n}.csv"


def _write_run_artifacts(out_dir: str, fwd, bwd, eig, rates, report: str):
    """The export layer of ``nsrpf run``: lambda.csv (with the eigen dual
    residuals), one m_<n>.csv and h_<n>.csv per reported index, rates.csv
    and report.txt.  An m_<n>.csv or h_<n>.csv already in ``out_dir`` whose
    index this run does not report is removed, so the per-index files are
    exactly this run's; no other name is touched."""
    resid = eig.criteria["dual residual"]
    ns = fwd.reported_lam
    _write_csv(os.path.join(out_dir, "lambda.csv"), _LAMBDA_COLUMNS,
               _interleave(ns, [fwd.lam[n] for n in ns],
                           [fwd.k_star.get(n, -1) for n in ns], [resid[n] for n in ns]))
    templates = {}   # one body template per vector length
    written = set()

    def write_vector(name, columns, v):
        if len(v) not in templates:
            templates[len(v)] = _vector_template(len(v))
        _atomic_write(os.path.join(out_dir, name), ",".join(c for c, _ in columns) + "\n"
                      + templates[len(v)] % tuple(v.tolist()))
        written.add(name)

    for n in fwd.reported_m:
        write_vector(f"m_{n}.csv", _M_COLUMNS, fwd.m[n].weights)
    if bwd is not None:
        for n in bwd.reported_h:
            write_vector(f"h_{n}.csv", _H_COLUMNS, bwd.h[n].values)
    for name in os.listdir(out_dir):
        if name not in written and _VECTOR_NAME.fullmatch(name):
            os.unlink(os.path.join(out_dir, name))
    _write_csv(os.path.join(out_dir, "rates.csv"), _RATES_COLUMNS, _record_cells(rates.rows))
    _atomic_write(os.path.join(out_dir, "report.txt"), report)


def cmd_run(cfg: RunConfig) -> int:
    seq, cone, cert, ledger = _certify(cfg)
    _make_out_dir(cfg)
    _atomic_write(os.path.join(cfg.out_dir, "constants.txt"),
                  _constants_text(cfg, cone, cert, ledger))
    fwd = solve_forward(seq, tol=cfg.tol, tau=cert.tau,
                        block_factor=cert.block_factor, cone_params=cone)
    bwd = solve_backward(fwd) if seq.two_sided else None

    results = []   # (check, passed, detail), in report order
    eig = verify_eigen_relations(fwd, bwd, cfg.tol)
    if "eigen" in cfg.checks:
        results.append(("eigen", eig.passed, _graded(eig, "tol")))
    rc = cert.rate_constants()
    rates = verify_exponential_rates(fwd, bwd, rc)   # rates.csv is written either way
    if "rates" in cfg.checks:
        detail = f"{rates.violations} envelope violations over {len(rates.rows)} records"
        if not rates.passed:
            worst, n = max((s, n) for n, pair in rates.slopes.items() for s in pair)
            detail += (f", worst slope {_fmt(worst)} at n = {n} (must be < 0 and "
                       f"<= log(gamma) + 1 = {_fmt(math.log(rc.gamma) + 1.0)})")
        results.append(("rates", rates.passed, detail))
    if "independence" in cfg.checks:
        ind = verify_independence(fwd, bwd, tol=cfg.tol)
        results.append(("independence", ind.passed, _graded(ind, "threshold")))
    if "uniqueness" in cfg.checks:
        uq = verify_uniqueness(fwd, bwd, tol=cfg.tol)
        detail = (f"tail-shift dlam {_fmt(uq.worst('dlam'))}, dm {_fmt(uq.worst('dm'))}, "
                  f"xi gap {_fmt(uq.worst('xi gap'))}, seed dh {_fmt(uq.worst('dh'))}")
        if not uq.passed:
            detail += f" (threshold {_fmt(uq.tol)})" + _failing(uq)
        results.append(("uniqueness", uq.passed, detail))
    if "cone_contraction" in cfg.checks:
        cc = verify_cone_contraction(seq, cone, tau=cert.tau,
                                     extra_delta=cert.Delta_measured, seed=cfg.solver_seed)
        detail = (f"{cc.n_pairs} pairs of family members {cc.members[0]}..{cc.members[-1]}, "
                  f"Delta {_fmt(cc.Delta_measured)}, "
                  f"max ratio {_fmt(float(cc.ratios.max()) if cc.n_pairs else 0.0)} "
                  f"vs tanh(Delta/4) {_fmt(cc.block_factor)}")
        if not cc.passed:
            detail += f", {cc.monotone_violations} monotone violations"
        results.append(("cone_contraction", cc.passed, detail))
    if "invariant_chain" in cfg.checks and bwd is not None:
        if cfg.kind == "matrix":
            chain_tol = cfg.tol
        else:
            # the pushforward pairing is limited by linear-interpolation error,
            # which scales like 1/N^2; 1e-4 is the measured scale at N = 1024
            n = seq.space(seq.n_min).n_points
            chain_tol = max(cfg.tol, 1e-4 * (1024.0 / n) ** 2)
        try:
            chain = build_invariant_chain(fwd, bwd, tol=chain_tol, eigen=eig)
        except (DomainError, ConvergenceError) as e:
            # refused (residuals too large, or no index to check): the
            # other checks and the artifacts stand
            results.append(("invariant_chain", False, f"refused: {e}"))
        else:
            results.append(("invariant_chain", chain.passed, _graded(chain, "tol")))

    report = "\n".join(f"{'PASS' if ok else 'FAIL'} {check}: {detail}"
                       for check, ok, detail in results) + "\n"
    _write_run_artifacts(cfg.out_dir, fwd, bwd, eig, rates, report)
    sys.stdout.write(report)
    return 0 if all(ok for _, ok, _ in results) else 1


def cmd_oracle(cfg: RunConfig) -> int:
    if cfg.kind != "matrix":
        raise ConfigError("oracle mode needs a matrix system (dense products)")
    seq, cone, cert, ledger = _certify(cfg)
    fwd = solve_forward(seq, tol=cfg.tol, tau=cert.tau,
                        block_factor=cert.block_factor, cone_params=cone,
                        with_diagnostics=False)
    bwd = solve_backward(fwd, with_diagnostics=False)
    lams, ms, hs = oracle_rpf_chain(cfg.system)
    rows = []
    worst = 0.0
    for n in fwd.reported_lam:
        dl = abs(lams[n] - fwd.lam[n]) / fwd.lam[n]
        dm = float(np.abs(ms[n] - fwd.m[n].weights).max())
        dh = (float(np.abs(hs[n] - bwd.h[n].values).max())
              if n in bwd.reported_h else math.nan)
        worst = max(worst, dl, dm, 0.0 if math.isnan(dh) else dh)
        rows.append((n, dl, dm, dh))
    _make_out_dir(cfg)
    _write_csv(os.path.join(cfg.out_dir, "oracle_diff.csv"), _ORACLE_COLUMNS,
               itertools.chain.from_iterable(rows))
    ok = worst < 1e-9
    line = f"{'PASS' if ok else 'FAIL'} oracle: max solver-oracle gap {_fmt(worst)}\n"
    _atomic_write(os.path.join(cfg.out_dir, "report.txt"), line)
    sys.stdout.write(line)
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="nsrpf", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    for name in ("run", "certify", "oracle"):
        sp = sub.add_parser(name)
        sp.add_argument("config")
    args = ap.parse_args(argv)
    try:
        cfg = parse_config(args.config)
    except (ConfigError, configparser.Error) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    try:
        if args.cmd == "run":
            return cmd_run(cfg)
        if args.cmd == "certify":
            return cmd_certify(cfg)
        return cmd_oracle(cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except CertificationError as e:
        print(f"certification failure: {e}", file=sys.stderr)
        return 3
    except (DomainError, StructuralError, ConvergenceError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
