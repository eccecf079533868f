"""Command line front end.

    qcfk <mode> [--m N[,N...]] [--k N[,N...]] [--k0 F] [--k1 F] [--k2 F]
                [--a0 F] [--tau-gl F] [--tau-div F] [--symmetrize]
                [--gamma-split] [--format csv|json] [--out PATH]
                [--config FILE]

Modes:

* ``adapt``    - one adaptive run, emitted as its iteration history
* ``fixed-k``  - full estimator report on one interval region (needs --k)
* ``sweep-k``  - estimates only (no exact solve) over a list of K values
* ``table1``   - adaptive histories over a list of chain sizes
* ``table2``   - exact error and both estimates over a list of K values
* ``table3``   - smallest K reaching each tolerance, by exact error and
                 by each estimate; the tolerances are the decades
                 1e-2 .. 1e-14 unless --tau-gl names a single one
* ``profile``  - per-atom and per-bond indicator series for one region

Config files hold ``key = value`` lines using the long option names with
underscores; command line flags win over the file.  CSV output rounds
floats to scientific notation with six fractional digits, JSON keeps full
precision and echoes the resolved run spec.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass

from .adaptivity import AdaptConfig, FixedKResult, fixed_k_run, run_adaptive
from .model import ChainParams

MODES = ("adapt", "fixed-k", "sweep-k", "table1", "table2", "table3", "profile")

TABLE2_K = (0, 2, 4, 6, 8, 10, 15, 20, 25, 30, 35, 40, 45, 50)
TABLE3_TAU = tuple(10.0**-p for p in range(2, 15))
# below this exact error, double precision noise dominates the reference
PRECISION_FLOOR = 1e-13

_CONFIG_KEYS = {
    "m": str,
    "k": str,
    "k0": float,
    "k1": float,
    "k2": float,
    "a0": float,
    "tau_gl": float,
    "tau_div": float,
    "symmetrize": bool,
    "gamma_split": bool,
    "format": str,
    "out": str,
}


@dataclass(frozen=True)
class RunSpec:
    """Fully resolved run request (mode defaults already applied).

    ``tau_gl`` is None only for a table3 run given no tolerance, which
    then tabulates every decade of ``TABLE3_TAU``.
    """

    mode: str
    m: tuple[int, ...]
    k: tuple[int, ...]
    k0: float
    k1: float
    k2: float
    a0: float
    tau_gl: float | None
    tau_div: float
    symmetrize: bool
    gamma_split: bool
    format: str
    out: str | None

    def chain_params(self, m: int) -> ChainParams:
        return ChainParams(m=m, k0=self.k0, k1=self.k1, k2=self.k2, a0=self.a0)


def _parse_int_list(text: str, what: str, err) -> tuple[int, ...]:
    try:
        vals = tuple(int(part) for part in str(text).split(","))
    except ValueError:
        err(f"{what} expects a comma separated list of integers, got {text!r}")
    if not vals:
        err(f"{what} must not be empty")
    return vals


def _parse_bool(text: str, key: str, err) -> bool:
    low = str(text).strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    err(f"config key {key} expects a boolean, got {text!r}")


def _read_config(path: str, err) -> dict:
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        err(f"cannot read config file: {exc}")
    out = {}
    for ln, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            err(f"{path}:{ln}: expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in _CONFIG_KEYS:
            err(f"{path}:{ln}: unknown config key {key!r}")
        kind = _CONFIG_KEYS[key]
        if kind is bool:
            out[key] = _parse_bool(value, key, err)
        elif kind is float:
            try:
                out[key] = float(value)
            except ValueError:
                err(f"{path}:{ln}: key {key!r} expects a number, got {value!r}")
        else:
            out[key] = value
    return out


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qcfk",
        description="Defect-opening error estimates for a blended NN/NNN chain",
    )
    p.add_argument("mode", choices=MODES)
    p.add_argument("--m", help="chain half-size M, or a comma separated list")
    p.add_argument("--k", help="atomistic half-width K, or a comma separated list")
    p.add_argument("--k0", type=float, help="substrate well stiffness")
    p.add_argument("--k1", type=float, help="nearest-neighbour spring")
    p.add_argument("--k2", type=float, help="next-nearest-neighbour spring")
    p.add_argument("--a0", type=float, help="lattice spacing")
    p.add_argument("--tau-gl", type=float, dest="tau_gl", help="global tolerance")
    p.add_argument(
        "--tau-div", type=float, dest="tau_div", help="local threshold divisor"
    )
    p.add_argument("--symmetrize", action="store_true", default=None)
    p.add_argument("--gamma-split", action="store_true", default=None, dest="gamma_split")
    p.add_argument("--format", choices=("csv", "json"))
    p.add_argument("--out", help="write output to this path instead of stdout")
    p.add_argument("--config", help="key = value file with the same options")
    return p


def parse_run_spec(argv: list[str]) -> RunSpec:
    """Resolve argv (plus optional config file) into a validated RunSpec."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    err = parser.error

    merged = {
        "m": None,
        "k": None,
        "k0": 1.0,
        "k1": 2.0,
        "k2": 2.0,
        "a0": 1.0,
        "tau_gl": None,
        "tau_div": 10.0,
        "symmetrize": False,
        "gamma_split": False,
        "format": "csv",
        "out": None,
    }
    if args.config:
        merged.update(_read_config(args.config, err))
    for key in merged:
        val = getattr(args, key)
        if val is not None:
            merged[key] = val

    mode = args.mode
    if merged["m"] is None:
        if mode == "table1":
            m_list = (100, 1000, 10_000, 100_000, 1_000_000)
        elif mode == "profile":
            m_list = (500,)
        else:
            m_list = (1000,)
    else:
        m_list = _parse_int_list(merged["m"], "--m", err)
    if merged["k"] is None:
        if mode in ("table2", "sweep-k"):
            k_list = TABLE2_K
        elif mode == "table3":
            k_list = tuple(range(0, 51))
        elif mode == "profile":
            k_list = (20,)
        elif mode == "fixed-k":
            err("mode fixed-k needs --k (use sweep-k for several values)")
        else:
            k_list = ()
    else:
        k_list = _parse_int_list(merged["k"], "--k", err)

    tau_gl = merged["tau_gl"]
    if tau_gl is None and mode != "table3":
        tau_gl = 1e-10

    spec = RunSpec(
        mode=mode,
        m=m_list,
        k=k_list,
        k0=float(merged["k0"]),
        k1=float(merged["k1"]),
        k2=float(merged["k2"]),
        a0=float(merged["a0"]),
        tau_gl=None if tau_gl is None else float(tau_gl),
        tau_div=float(merged["tau_div"]),
        symmetrize=bool(merged["symmetrize"]),
        gamma_split=bool(merged["gamma_split"]),
        format=str(merged["format"]),
        out=merged["out"],
    )

    # config files bypass argparse's choices
    if spec.format not in ("csv", "json"):
        err(f"--format must be csv or json, got {spec.format!r}")
    # the objects a run builds check their own inputs; table3's default
    # decades are all valid tolerances, so its smallest one stands in for them
    try:
        for m in spec.m:
            spec.chain_params(m)
        AdaptConfig(
            tau_gl=TABLE3_TAU[-1] if spec.tau_gl is None else spec.tau_gl,
            tau_div=spec.tau_div,
        )
    except ValueError as exc:
        err(str(exc))
    if mode in ("fixed-k", "profile") and len(spec.k) != 1:
        err(f"mode {mode} takes exactly one --k value")
    for k in spec.k:
        if k < 0:
            err(f"--k values must be >= 0, got {k}")
        for m in spec.m:
            if k > m - 2:
                err(f"--k {k} exceeds the largest region M - 2 = {m - 2}")
    if mode != "table1" and len(spec.m) != 1:
        err(f"mode {mode} takes exactly one --m value (table1 sweeps M)")
    return spec


def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int,)):
        return str(v)
    if isinstance(v, float):
        return f"{v:.6e}"
    return str(v)


def emit_csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def emit_json(spec: RunSpec, header: list[str], rows: list[list], extra=None) -> str:
    payload = {"spec": asdict(spec), "columns": header, "rows": rows}
    if extra:
        payload.update(extra)
    return json.dumps(payload, indent=2) + "\n"


def _adapt_rows(spec: RunSpec, m: int):
    params = spec.chain_params(m)
    config = AdaptConfig(
        tau_gl=spec.tau_gl,
        tau_div=spec.tau_div,
        symmetrize=spec.symmetrize,
        use_gamma=spec.gamma_split,
    )
    trace = run_adaptive(params, config)
    rows = [
        [m, r.iteration, r.k if r.k is not None else r.n_atomistic, r.tau_at, r.eta1]
        for r in trace.records
    ]
    return trace, rows


def cmd_adapt(spec: RunSpec):
    trace, rows = _adapt_rows(spec, spec.m[0])
    header = ["m", "iteration", "k", "tau_at", "eta1"]
    return header, rows, trace.as_dict()


def cmd_table1(spec: RunSpec):
    header = ["m", "iteration", "k", "tau_at", "eta1"]
    rows = []
    for m in spec.m:
        _, m_rows = _adapt_rows(spec, m)
        rows.extend(m_rows)
    return header, rows, None


def _sweep(spec: RunSpec, want_exact: bool) -> list[FixedKResult]:
    """One fixed-K run per --k value, each handing its reference on."""
    params = spec.chain_params(spec.m[0])
    results, ref = [], None
    for k in spec.k:
        res = fixed_k_run(
            params, k, want_exact=want_exact, use_gamma=spec.gamma_split, ref=ref
        )
        results.append(res)
        ref = res.ref
    return results


def cmd_table2(spec: RunSpec):
    header = [
        "k",
        "q_error",
        "eta1",
        "eta1_eff",
        "eta2",
        "eta2_eff",
        "precision_floor",
    ]
    rows = []
    for res in _sweep(spec, want_exact=True):
        qe = res.abs_q_error
        rows.append(
            [
                res.k,
                qe,
                res.report.eta1,
                res.efficiency(res.report.eta1),
                res.report.eta2,
                res.efficiency(res.report.eta2),
                qe is not None and qe < PRECISION_FLOOR,
            ]
        )
    return header, rows, None


def cmd_table3(spec: RunSpec):
    results = _sweep(spec, want_exact=True)
    # the decade list is the default; an explicit --tau-gl narrows it to one row
    taus = TABLE3_TAU if spec.tau_gl is None else (spec.tau_gl,)
    header = ["tau", "k_opt", "k_eta1", "k_eta2"]

    def first_k(values, tau) -> int | None:
        for res, v in zip(results, values):
            if v <= tau:
                return res.k
        return None

    rows = []
    for tau in taus:
        rows.append(
            [
                tau,
                first_k([r.abs_q_error for r in results], tau),
                first_k([r.report.eta1 for r in results], tau),
                first_k([r.report.eta2 for r in results], tau),
            ]
        )
    return header, rows, None


def cmd_profile(spec: RunSpec):
    params = spec.chain_params(spec.m[0])
    rep = fixed_k_run(
        params, spec.k[0], want_exact=False, use_gamma=spec.gamma_split
    ).report
    atoms = rep.free_ids().tolist()
    bonds = range(-rep.m_window + 1, rep.m_window)
    header = ["series", "i", "value"]
    rows = []
    rows.extend(["at", i, float(v)] for i, v in zip(atoms, rep.eta2_at))
    rows.extend(["el", i, float(v)] for i, v in zip(bonds, rep.eta2_el))
    rows.extend(["tot", i, float(v)] for i, v in zip(atoms, rep.eta2_total()))
    return header, rows, None


def cmd_sweep_k(spec: RunSpec):
    header = ["k", "eta1", "eta2", "first_term", "sigma_bar"]
    rows = []
    for res in _sweep(spec, want_exact=False):
        rep = res.report
        rows.append([res.k, rep.eta1, rep.eta2, rep.first_term, rep.sigma_bar])
    return header, rows, None


# the report fields a fixed-k row carries, between the region and its flags
_FIXED_K_FIELDS = (
    "eta1", "eta2", "first_term", "sigma_bar", "theta_plus", "theta_minus",
    "eta_upp_plus", "eta_upp_minus", "eta_low_plus", "eta_low_minus",
    "bound_low", "bound_high",
)


def cmd_fixed_k(spec: RunSpec):
    params = spec.chain_params(spec.m[0])
    res = fixed_k_run(params, spec.k[0], want_exact=True, use_gamma=spec.gamma_split)
    rep = res.report
    header = ["k", "q_error", *_FIXED_K_FIELDS, "flags"]
    values = [getattr(rep, name) for name in _FIXED_K_FIELDS]
    rows = [[res.k, res.abs_q_error, *values, ";".join(rep.flags)]]
    extra = {"report": rep.as_dict(), "q_error": res.q_error}
    return header, rows, extra


_COMMANDS = {
    "adapt": cmd_adapt,
    "fixed-k": cmd_fixed_k,
    "sweep-k": cmd_sweep_k,
    "table1": cmd_table1,
    "table2": cmd_table2,
    "table3": cmd_table3,
    "profile": cmd_profile,
}


def run(spec: RunSpec) -> str:
    """Execute a spec and render its output text."""
    header, rows, extra = _COMMANDS[spec.mode](spec)
    if spec.format == "json":
        return emit_json(spec, header, rows, extra)
    return emit_csv(header, rows)


def main(argv=None) -> int:
    spec = parse_run_spec(sys.argv[1:] if argv is None else list(argv))
    text = run(spec)
    if spec.out:
        with open(spec.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
