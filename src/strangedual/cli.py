"""Command-line front end.

Every library operation is reachable from the shell; polynomial and
frame arguments are quoted strings in the documented grammars.  The
catalog path resolves in order: ``--catalog``, the ``SD_CATALOG``
environment variable, the shipped data file.

Exit status: 0 on success, 1 on computation or verification failure,
2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import catalog as cat
from . import invertible as inv
from . import matfac as mf
from .coxeter import GabrielovQuadruple, charpoly_Pi, charpoly_S, emit_graph
from .orbits import CStarAction, OrbitError, dolgachev_pair, exceptional_orbits, split_newton
from .polyring import Polynomial, PolynomialError, parse_poly, parse_poly_terms
from .series import (
    SeriesError,
    format_frame,
    frame_expand,
    frame_to_polynomial,
    parse_frame,
    parse_weight_system,
    poincare,
    saito_dual,
)

_DEFAULT_VARS = "x,y,z,w"


class CommandError(Exception):
    """Computation-level failure; maps to exit status 1."""


def _vars_list(text: str) -> tuple[str, ...]:
    names = tuple(v.strip() for v in text.split(",") if v.strip())
    if not names:
        raise CommandError(f"empty variable list {text!r}")
    return names


def _parse(text: str):
    try:
        return parse_poly(text)
    except PolynomialError as exc:
        raise CommandError(f"bad polynomial {text!r}: {exc}") from None


def _parse_terms(text: str):
    try:
        return parse_poly_terms(text)
    except PolynomialError as exc:
        raise CommandError(f"bad polynomial {text!r}: {exc}") from None


def _cmd_transpose(args) -> int:
    # Row order follows the written term order, as in the tables.
    matrix = inv.from_terms(_parse_terms(args.poly), _vars_list(args.vars), allow_singular=True)
    print(inv.bh_transpose(matrix).to_polynomial())
    return 0


def _cmd_weights(args) -> int:
    # Rows in canonical term order, like terms combined; the results do not
    # depend on the row order once the determinant is made non-negative.
    terms = [Polynomial({mono: coeff}) for mono, coeff in _parse(args.poly).terms()]
    matrix = inv.from_terms(terms, _vars_list(args.vars), allow_singular=True).oriented()
    solution = inv.canonical_weights(matrix)
    raw = ",".join(str(w) for w in solution.weights)
    red = ",".join(str(w) for w in solution.reduced_weights)
    print(f"raw weights:     ({raw}; {solution.degree})")
    print(f"reduced weights: ({red}; {solution.reduced_degree})")
    if not solution.positive:
        print("warning: non-positive weight component")
    if matrix.det() != 0:
        grading = inv.grading_operator(matrix)
        group = inv.symmetry_group(matrix)
        print(f"grading operator: {grading}")
        factors = ",".join(str(d) for d in group.invariant_factors) or "-"
        print(f"|G_f| = {group.order}   invariant factors: ({factors})")
    else:
        print("det E = 0: grading operator and symmetry group undefined")
    return 0


def _cmd_reduce(args) -> int:
    pair = mf.CompleteIntersectionPair(_parse(args.first), _parse(args.second))
    try:
        print(mf.reduce(pair))
    except mf.MatfacError as exc:
        raise CommandError(str(exc)) from None
    return 0


def _cmd_lift(args) -> int:
    try:
        triple = mf.FactorizationTriple(_parse(args.a), _parse(args.b), _parse(args.c))
        mf.verify_factorization(triple)
    except mf.MatfacError as exc:
        raise CommandError(str(exc)) from None
    pair = mf.lift(triple)
    print(pair.first)
    print(pair.second)
    return 0


def _cmd_poincare(args) -> int:
    try:
        ws = parse_weight_system(args.weightsystem)
        frame = poincare(ws)
        print(format_frame(frame))
        if args.expand is not None:
            print(",".join(str(c) for c in frame_expand(frame, args.expand)))
    except SeriesError as exc:
        raise CommandError(str(exc)) from None
    return 0


def _cmd_saito_dual(args) -> int:
    try:
        frame = parse_frame(args.frame)
        print(format_frame(saito_dual(frame, args.degree)))
    except SeriesError as exc:
        raise CommandError(str(exc)) from None
    return 0


def _cmd_charpoly(args) -> int:
    try:
        quadruple = GabrielovQuadruple.of(args.g1, args.g2, args.g3, args.g4)
    except ValueError as exc:
        raise CommandError(str(exc)) from None
    print(charpoly_S(quadruple) if args.graph == "S" else charpoly_Pi(quadruple))
    if args.dot:
        print(emit_graph(quadruple, args.graph).to_dot())
    return 0


def _cmd_split_newton(args) -> int:
    try:
        split = split_newton(_parse(args.poly), _parse(args.h1))
    except OrbitError as exc:
        raise CommandError(str(exc)) from None
    for i, face in enumerate(split.faces, start=1):
        print(f"face {i}: {face.polynomial}   weights {face.weights}")
    return 0


def _cmd_dolgachev(args) -> int:
    weights = tuple(args.weights)
    action = CStarAction(weights)
    h1, h2 = _parse(args.first), _parse(args.second)
    try:
        if args.orbits:
            for orbit in exceptional_orbits(h1, h2, action):
                print(orbit)
        pair = dolgachev_pair(h1, h2, action)
    except OrbitError as exc:
        raise CommandError(str(exc)) from None
    print(f"({pair[0]}, {pair[1]})")
    return 0


def _load_catalog(args) -> cat.Catalog:
    path = args.catalog or os.environ.get("SD_CATALOG") or None
    try:
        return cat.load_catalog(path)
    except (OSError, cat.CatalogError) as exc:
        raise CommandError(f"cannot load catalog: {exc}") from None


def _cmd_catalog_show(args) -> int:
    catalog = _load_catalog(args)
    try:
        entry = catalog.get(args.name)
    except cat.CatalogError as exc:
        raise CommandError(str(exc)) from None
    print(f"{entry.display}  (dual: {catalog.dual_of(entry).display})")
    print(f"  virtual equations: {entry.virtual_equations}")
    print(f"  matrix factorization: {entry.matfac}")
    parent = entry.parent
    print(f"  parent {parent.name}: f = {parent.f}")
    print(f"    change {parent.change_display} gives h = {parent.h}")
    print(f"  case ({entry.substitution_case}) polynomial: {entry.duality_poly}")
    print(f"  kernel vector: {entry.kernel}")
    if entry.k0_equations is not None:
        k0 = entry.k0_equations
        print(f"  k=0 equations: ({k0[0]}, {k0[1]})   restrictions: {entry.k0_restrictions}")
    else:
        print("  k=0 equations: not recorded for this series")
    print(f"  k=0 weight system: {entry.k0_weights}")
    for i, piece in enumerate(entry.decomposition, start=1):
        print(f"  h2,{i} = {piece.polynomial}   weights {piece.weights}")
    dol = entry.dolgachev
    gab = entry.gabrielov
    print(f"  Dolgachev: {dol[0][0]},{dol[0][1]};{dol[1][0]},{dol[1][1]}")
    print(f"  Gabrielov: {gab[0][0]},{gab[0][1]};{gab[1][0]},{gab[1][1]}")
    print(f"  zeta frame: {format_frame(entry.zeta_frame)}")
    print(f"  expanded: {frame_to_polynomial(entry.zeta_frame)}")
    t9 = entry.dynkin
    ms = ", ".join(
        f"M{k}={base}+{extra}" if extra else f"M{k}={base}"
        for k, (base, extra) in zip((2, 4, 5, 6, 7), t9.multiplicities)
    )
    print(f"  germ at 0: {t9.germ}   {ms}")
    return 0


def _cmd_verify(args) -> int:
    catalog = _load_catalog(args)
    if args.entry:
        try:
            entries = cat.Catalog((catalog.get(args.entry),))
        except cat.CatalogError as exc:
            raise CommandError(str(exc)) from None
        report = cat.CatalogReport(
            tuple(cat.verify_entry(entry, catalog) for entry in entries.entries)
        )
    else:
        report = cat.verify_all(catalog)
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.to_text())
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strangedual",
        description="Exact computations for the strange duality between "
        "quadrangle complete intersection singularities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transpose", help="Berglund-Huebsch transpose of a polynomial")
    p.add_argument("poly")
    p.add_argument("--vars", default=_DEFAULT_VARS)
    p.set_defaults(func=_cmd_transpose)

    p = sub.add_parser("weights", help="canonical weights, grading operator, symmetry group")
    p.add_argument("poly")
    p.add_argument("--vars", default=_DEFAULT_VARS)
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser("reduce", help="eliminate y from a pair (x*y - a, c + y*b)")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("lift", help="complete intersection pair of a factorization (a, b, c)")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("c")
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("poincare", help="Poincare series of a weight system")
    p.add_argument("weightsystem", help='e.g. "2,6,5,4;8,10"')
    p.add_argument("--expand", type=int, metavar="N")
    p.set_defaults(func=_cmd_poincare)

    p = sub.add_parser("saito-dual", help="Saito dual of a frame product")
    p.add_argument("frame")
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(func=_cmd_saito_dual)

    p = sub.add_parser("charpoly", help="Coxeter-element characteristic polynomial")
    p.add_argument("g1", type=int)
    p.add_argument("g2", type=int)
    p.add_argument("g3", type=int)
    p.add_argument("g4", type=int)
    p.add_argument("--graph", choices=("S", "Pi"), default="S")
    p.add_argument("--dot", action="store_true", help="also emit the graph in DOT format")
    p.set_defaults(func=_cmd_charpoly)

    p = sub.add_parser("split-newton", help="Newton-polygon split of a 4-term polynomial")
    p.add_argument("poly")
    p.add_argument("--h1", required=True, help="companion first equation (fixes the grading)")
    p.set_defaults(func=_cmd_split_newton)

    p = sub.add_parser("dolgachev", help="Dolgachev pair of (h1, h2) under a C*-action")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--weights", type=int, nargs=4, required=True)
    p.add_argument("--orbits", action="store_true", help="also list the exceptional orbits")
    p.set_defaults(func=_cmd_dolgachev)

    p = sub.add_parser("catalog", help="inspect the series catalog")
    catalog_sub = p.add_subparsers(dest="catalog_command", required=True)
    p_show = catalog_sub.add_parser("show", help="print one catalog entry")
    p_show.add_argument("name")
    p_show.add_argument("--catalog")
    p_show.set_defaults(func=_cmd_catalog_show)

    p = sub.add_parser("verify", help="replay the catalog's golden checks")
    p.add_argument("--entry")
    p.add_argument("--json", action="store_true")
    p.add_argument("--catalog")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CommandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (inv.InvertibleError, mf.MatfacError, PolynomialError, SeriesError, OrbitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
