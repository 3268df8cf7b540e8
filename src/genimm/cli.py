"""Command-line front end for the invariant toolkit.

Subcommands mirror the library modules: exact quadratic-form arithmetic,
surface descriptors, the kinked-sphere family geometry, the numerical
topology engines, the invariant calculators, the wall-crossing simulator,
and aggregated report tables.  All structured I/O is JSON with a
``"schema": 1`` field; exit status is 0 on success, 1 when a check fails,
2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import config as config_mod
from . import numtopo
from . import qform
from . import strata
from . import surfaces
from . import invariants
from .config import Config
from .geometry import FamilyMap, HalfInteger
from .invariants import ImmersionState5, family_state, lk_of_family, \
    smale_of_family


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _CliError(2, f"cannot read {path}: {exc}") from exc


def _parse_json(path: str, loader):
    text = _read_text(path)
    try:
        return loader(text)
    except ValueError as exc:
        raise _CliError(2, f"{path}: {exc}") from exc


def _parse_half(text: str) -> HalfInteger:
    try:
        return HalfInteger.parse(text)
    except ValueError as exc:
        raise _CliError(2, str(exc)) from exc


def _emit(args, payload: dict, human: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps({"schema": 1, **payload}))
    else:
        print(human)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_qform(args, config: Config) -> int:
    space = _parse_json(args.space, qform.QuadraticSpace.from_json)
    compute = {"brown": qform.brown, "split": qform.is_split,
               "table": qform.q_table}[args.action]
    try:
        value = compute(space, config)
    except qform.DimensionCapError as exc:
        raise _CliError(2, f"{args.space}: {exc}") from exc
    if args.action == "brown":
        _emit(args, {"dim": space.dim, "brown": value},
              f"brown = {value} (dim {space.dim})")
    elif args.action == "split":
        _emit(args, {"dim": space.dim, "split": value},
              f"split: {'yes' if value else 'no'}")
    else:
        table = value.tolist()
        _emit(args, {"dim": space.dim, "q": table},
              "q values on F_2^n (vector index order): "
              + " ".join(str(v) for v in table))
    return 0


def _cmd_surface(args, config: Config) -> int:
    desc = _parse_json(args.surface, surfaces.SurfaceDescriptor.from_json)
    payload = {
        "components": len(desc.components),
        "euler": surfaces.euler(desc),
        "orientable": desc.orientable,
    }
    lines = [f"components: {payload['components']}",
             f"euler characteristic: {payload['euler']}",
             f"orientable: {'yes' if desc.orientable else 'no'}"]
    if desc.quad_data is not None:
        payload["beta"] = surfaces.beta_surface(desc, config)
        lines.append(f"beta = {payload['beta']}")
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_family(args, config: Config) -> int:
    m = _parse_half(args.m)
    fam = FamilyMap(m, config=config)
    comps = fam.preimage_components(64)
    payload = {
        "m": str(m),
        "cap_height": fam.params.cap_height,
        "kink_scale": fam.params.kink_scale,
        "double_point_radius": fam.double_point_radius,
        "preimage_circles": len(comps) if m.twice else 0,
        "preimage_connected": not m.is_integer,
    }
    human = "\n".join([
        f"family member m = {m}",
        f"cap height {payload['cap_height']:.6f}, "
        f"kink scale {payload['kink_scale']:.6f}",
        f"double circle radius {payload['double_point_radius']:.6f}",
        ("no self intersection" if not m.twice else
         f"{payload['preimage_circles']} preimage circle(s), "
         f"preimage {'connected' if payload['preimage_connected'] else 'split'}"),
    ])
    _emit(args, payload, human)
    return 0


def _cmd_numtopo(args, config: Config) -> int:
    m = _parse_half(args.m)
    if args.action == "degree":
        deg = invariants.first_column_degree(m, config)
        expected = 2 - m.twice
        _emit(args, {"m": str(m), "degree": deg.value,
                     "preimages": deg.count, "expected": expected},
              f"degree = {deg.value} over {deg.count} preimage(s); "
              f"closed form {expected}")
        return 0 if deg.value == expected else 1
    if args.action == "hopf":
        v = invariants.second_column_hopf(config)
        _emit(args, {"m": str(m), "hopf": v, "expected": -1},
              f"hopf invariant = {v}; closed form -1")
        return 0 if v == -1 else 1
    # action == "link"
    if args.curve is None:
        value = lk_of_family(m, config)
        expected = -2 * m.twice
        _emit(args, {"m": str(m), "lk": value, "expected": expected},
              f"lk = {value}; closed form {expected}")
        return 0 if value == expected else 1
    points = _parse_json(args.curve, lambda text: qform.loads_record(
        text, {"points": list}))["points"]
    if len(points) < 3 or any(
            type(row) is not list or len(row) != 5
            or any(type(v) not in (int, float) for v in row) for row in points):
        raise _CliError(2, f"{args.curve}: points must be an n x 5 array of "
                           "JSON numbers with n >= 3")
    curve = np.asarray(points, dtype=float)
    if not np.isfinite(curve).all():
        raise _CliError(2, f"{args.curve}: points must be finite")
    fam = FamilyMap(m, config=config)
    try:
        value = numtopo.link_1cycle_3manifold(curve, fam, config)
    except ValueError as exc:
        raise _CliError(2, f"{args.curve}: {exc}") from exc
    _emit(args, {"m": str(m), "link": value},
          f"link with the image 3-sphere = {value}")
    return 0


_ROW_HEADER = ("m", "omega", "lk", "lambda", "tau", "J", "L", "St",
               "embeddable", "mode")


def _state_invariants(state: ImmersionState5) -> dict:
    return {
        "omega": state.omega,
        "lk": state.lk,
        "lambda": invariants.lambda_(state),
        "tau": invariants.tau(state),
        "J": invariants.J(state),
        "L": invariants.L(state),
        "St": invariants.St(state),
    }


def _invariant_row(m, config: Config, numeric: bool, hopf=None) -> dict:
    state = family_state(m, config)
    mode = "closed-form"
    if numeric:
        omega_num = smale_of_family(m, config, hopf).omega
        lk_num = lk_of_family(m, config)
        if (omega_num, lk_num) != (state.omega, state.lk):
            raise _CliError(1, f"m={m}: numeric (omega, lk) = "
                                f"({omega_num}, {lk_num}) disagrees with "
                                f"closed form ({state.omega}, {state.lk})")
        mode = "both-agree"
    return {"m": str(m), **_state_invariants(state),
            "embeddable": state.omega % 24 == 0, "mode": mode}


def _format_table(rows: list[dict]) -> str:
    cells = [[str(r[k]) for k in _ROW_HEADER] for r in rows]
    widths = [max(len(h), *(len(row[i]) for row in cells))
              for i, h in enumerate(_ROW_HEADER)]
    def line(vals):
        return "  ".join(v.rjust(w) for v, w in zip(vals, widths))
    out = [line(_ROW_HEADER), line(["-" * w for w in widths])]
    out.extend(line(row) for row in cells)
    return "\n".join(out)


def _cmd_invariants(args, config: Config) -> int:
    if args.action == "family":
        row = _invariant_row(_parse_half(args.m), config, args.numeric)
        _emit(args, {"rows": [row]}, _format_table([row]))
        return 0
    if args.action == "class":
        try:
            result = invariants.embedding_test(int(args.omega), config)
        except ValueError as exc:
            raise _CliError(2, str(exc)) from exc
        payload = dataclasses.asdict(result)
        if result.embeddable:
            human = (f"omega = {result.omega}: embeddable, "
                     f"sigma={result.sigma}")
        else:
            order = 24 // np.gcd(24, result.omega)
            human = (f"omega = {result.omega}: not embeddable; "
                     f"(lambda, beta) = ({result.lambda3}, {result.beta}) "
                     f"has order {order} in Z3+Z8")
        _emit(args, payload, human)
        return 0
    # action == "state"
    payload = _state_invariants(
        _parse_json(args.state, ImmersionState5.from_json))
    human = "\n".join(f"{k} = {v}" for k, v in payload.items())
    _emit(args, payload, human)
    return 0


_NAMED_INVARIANTS = {
    "J": invariants.J,
    "L": invariants.L,
    "St": invariants.St,
    "lambda": invariants.lambda_,
    "tau": invariants.tau,
    "mu": surfaces.mu,
}


def _strata_invariant(args):
    if args.invariant != "custom":
        return _NAMED_INVARIANTS[args.invariant], args.invariant
    if args.affine is None:
        raise _CliError(2, "--invariant custom requires --affine a,b,c")
    try:
        a, b, c = (int(v) for v in args.affine.split(","))
    except ValueError as exc:
        raise _CliError(2, f"bad --affine value: {exc}") from exc
    return (lambda s: a * invariants.J(s) + b * invariants.L(s) + c,
            f"{a}*J{b:+d}*L{c:+d}")


def _strata_paths(args, config: Config):
    if args.paths < 1:
        raise _CliError(2, "--paths must be at least 1")
    min_events = 2 if args.action == "verify" else 1
    if args.events < min_events:
        raise _CliError(2, f"strata {args.action} needs --events of at "
                           f"least {min_events}")
    needs4 = args.invariant == "mu"
    space = args.space if args.space is not None else (4 if needs4 else 5)
    if needs4 and space != 4:
        raise _CliError(2, "mu lives on 4-space states; use --space 4")
    if not needs4 and space != 5:
        raise _CliError(2, f"{args.invariant} lives on 5-space states")
    if space == 4:
        initial = surfaces.rp3_fixture()
    else:
        initial = family_state("1/2", config)
    return strata.random_paths(initial, args.events, args.paths,
                               seed=args.seed)


def _report_violations(args, report, label: str, check: str) -> int:
    payload = {
        "invariant": label,
        "check": check,
        "checked": report.checked,
        "skipped": report.skipped,
        "violations": [
            {"description": v.description,
             "path": json.loads(v.path.to_json())}
            for v in report.violations[:10]],
    }
    human = f"{label}: {report.summary()}"
    if not report.ok:
        human += "\nfirst failing path: " + report.violations[0].path.to_json()
    _emit(args, payload, human)
    return 0 if report.ok and report.checked else 1


def _cmd_strata(args, config: Config) -> int:
    inv, label = _strata_invariant(args)
    paths = _strata_paths(args, config)
    if args.action == "verify":
        report = strata.verify_first_order(inv, paths)
        return _report_violations(args, report, label, "first-order")
    report = strata.invariance_along_paths(inv, paths)
    return _report_violations(args, report, label, "invariance")


def _parse_m_range(text: str) -> list[HalfInteger]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise _CliError(2, f"m-range must look like '-2..2', got {text!r}")
    a, b = _parse_half(lo), _parse_half(hi)
    if a.twice > b.twice:
        raise _CliError(2, "empty m-range")
    return [HalfInteger(t) for t in range(a.twice, b.twice + 1)]


def _cmd_report(args, config: Config) -> int:
    members = _parse_m_range(args.m_range)
    hopf = invariants.second_column_hopf(config) if args.numeric else None
    rows = [_invariant_row(m, config, args.numeric, hopf) for m in members]
    if args.json:
        text = json.dumps({"schema": 1, "seed": config.seed,
                           "rows": rows}, indent=2) + "\n"
    else:
        text = _format_table(rows) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise _CliError(2, f"cannot write {args.out}: {exc}") from exc
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# argument grammar


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genimm",
        description="Invariants of generic immersions of the 3-sphere.")
    parser.add_argument("--config", metavar="PATH",
                        help="flat key = value config file "
                             "(or set GENIMM_CONFIG)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("qform", help="exact quadratic-refinement arithmetic")
    p.add_argument("action", choices=("brown", "split", "table"))
    p.add_argument("--space", required=True,
                   help="QuadraticSpace JSON file ('-' for stdin)")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("surface", help="surface descriptor invariants")
    p.add_argument("action", choices=("info",))
    p.add_argument("--surface", required=True,
                   help="SurfaceDescriptor JSON file ('-' for stdin)")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("family", help="kinked-sphere family geometry")
    p.add_argument("--m", required=True, help="half-integer parameter")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("numtopo", help="numerical topology engines")
    p.add_argument("action", choices=("degree", "hopf", "link"))
    p.add_argument("--m", required=True, help="half-integer parameter")
    p.add_argument("--curve", help="polyline JSON for the link action "
                                   "(default: canonical pushoff)")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("invariants", help="invariant calculators")
    act = p.add_subparsers(dest="action", required=True)
    fam = act.add_parser("family", help="all invariants of one family member")
    fam.add_argument("--m", required=True)
    fam.add_argument("--numeric", action="store_true",
                     help="recompute omega and lk numerically")
    fam.add_argument("--json", action="store_true")
    cls = act.add_parser("class", help="embedding test of a class")
    cls.add_argument("--omega", required=True, type=int)
    cls.add_argument("--json", action="store_true")
    st = act.add_parser("state", help="invariants of a state JSON")
    st.add_argument("--state", required=True,
                    help="ImmersionState5 JSON file ('-' for stdin)")
    st.add_argument("--json", action="store_true")

    p = sub.add_parser("strata", help="wall-crossing calculus checks")
    p.add_argument("action", choices=("verify", "invariance"))
    p.add_argument("--invariant", default="J",
                   choices=tuple(_NAMED_INVARIANTS) + ("custom",))
    p.add_argument("--affine", help="a,b,c for --invariant custom "
                                    "(checks a*J + b*L + c)")
    p.add_argument("--paths", type=int, default=1000)
    p.add_argument("--events", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--space", type=int, choices=(4, 5), default=None)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("report", help="golden invariant tables")
    p.add_argument("action", choices=("paper-table",))
    p.add_argument("--m-range", dest="m_range", default="-2..2")
    p.add_argument("--numeric", action="store_true")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", help="write the table to a file")

    return parser


_HANDLERS = {
    "qform": _cmd_qform,
    "surface": _cmd_surface,
    "family": _cmd_family,
    "numtopo": _cmd_numtopo,
    "invariants": _cmd_invariants,
    "strata": _cmd_strata,
    "report": _cmd_report,
}


def _normalize_argv(argv: list[str]) -> list[str]:
    """Join value-taking flags with '=' so negative values parse.

    argparse treats '-1/2' or '-2..2' as an unknown option when it appears
    as a separate token.
    """
    out = []
    it = iter(argv)
    for tok in it:
        if tok in ("--m", "--m-range", "--affine", "--omega"):
            nxt = next(it, None)
            out.append(tok if nxt is None else f"{tok}={nxt}")
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_normalize_argv(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        config = config_mod.load(args.config)
    except (OSError, ValueError) as exc:
        print(f"genimm: config error: {exc}", file=sys.stderr)
        return 2
    try:
        return _HANDLERS[args.command](args, config)
    except _CliError as exc:
        print(f"genimm: {exc}", file=sys.stderr)
        return exc.code
    except (ArithmeticError, numtopo.NonRegularValueError) as exc:
        print(f"genimm: check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
