r"""The eight-series catalog and the verification engine that replays
every identity in the catalog as an exact golden check.

Each catalog entry bundles, for one series of virtual complete
intersection singularities: the defining equation pairs, the size-two
matrix factorization, the parent hypersurface data (cusp equation,
coordinate change, reduced form), the four-term polynomial with its
exponent matrix and kernel vector, the Newton decomposition with its two
weight systems, Dolgachev and Gabrielov numbers, the monodromy frame
product, and the Coxeter-Dynkin bookkeeping (germ name, thimble
multiplicities).

``verify_entry`` runs ten independent checks per entry; ``verify_all``
aggregates them into a machine- and human-readable report.  On the
shipped catalog every check is an exact identity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Iterable

from . import matfac as mf
from .coxeter import charpoly_S
from .invertible import ExponentMatrix, bh_transpose, from_terms
from .orbits import CStarAction, OrbitError, dolgachev_pair, split_newton
from .polyring import (
    Polynomial,
    PolynomialError,
    QuasiFailure,
    Substitution,
    parse_poly,
    quasi_degree,
)
from .series import (
    FrameProduct,
    NotPolynomialError,
    SeriesError,
    WeightSystem,
    frame_to_polynomial,
    or_polynomial,
    parse_frame,
    parse_weight_system,
    poincare,
)

__all__ = [
    "Catalog",
    "SeriesEntry",
    "ParentData",
    "Decomposition",
    "DynkinData",
    "CheckResult",
    "EntryReport",
    "CatalogReport",
    "CatalogError",
    "SUBSTITUTION_CASES",
    "load_catalog",
    "default_catalog_path",
    "verify_entry",
    "verify_all",
    "report_from_json",
]


class CatalogError(Exception):
    pass


#: The four coordinate substitutions and their first equations / kernels.
SUBSTITUTION_CASES = {
    "a": {
        "relation": "x*y - w^2",
        "substitution": {"x": "x^2*w", "y": "y^2*w", "z": "z", "w": "x*y*w"},
        "kernel": (1, 1, 0, -2),
    },
    "b": {
        "relation": "x*y - w^3",
        "substitution": {"x": "x^6*w^3", "y": "y^6*w^3", "z": "z", "w": "x^2*y^2*w^2"},
        "kernel": (1, 1, 0, -2),
    },
    "c": {
        "relation": "x*y - z*w",
        "substitution": {"x": "x*w", "y": "y*z", "z": "x*z", "w": "y*w"},
        "kernel": (1, 1, -1, -1),
    },
    "d": {
        "relation": "x*y - z^2*w",
        "substitution": {"x": "y^2*z^2", "y": "x^2*w^2", "z": "x*z", "w": "y^2*w^2"},
        "kernel": (1, 1, -1, -1),
    },
}

_ALIASES = {
    "j'": "J'",
    "jprime": "J'",
    "k'": "K'",
    "kprime": "K'",
    "kb": "Kb",
    "k♭": "Kb",
    "kflat": "Kb",
    "l": "L",
    "ls": "Ls",
    "l#": "Ls",
    "l♯": "Ls",
    "lsharp": "Ls",
    "m": "M",
    "ms": "Ms",
    "m#": "Ms",
    "m♯": "Ms",
    "msharp": "Ms",
    "i": "I",
}


def canonical_name(name: str) -> str:
    return _ALIASES.get(name.strip().lower(), name.strip())


@dataclass(frozen=True, slots=True)
class ParentData:
    """Parent hypersurface of a series: cusp equation f, the coordinate
    change turning f - xzw into h - xzw, and the reduced polynomial h."""

    name: str
    series: str
    coefficients: tuple[Fraction, ...]
    f: Polynomial
    change: Substitution
    change_display: str
    h: Polynomial


@dataclass(frozen=True, slots=True)
class Decomposition:
    """One face polynomial of the Newton split with its weight system."""

    polynomial: Polynomial
    weights: WeightSystem


@dataclass(frozen=True, slots=True)
class DynkinData:
    """Coxeter-Dynkin bookkeeping: germ name, thimble multiplicities with
    their '+1' annotations, and the annotated arm parameters."""

    germ: str
    multiplicities: tuple[tuple[int, int], ...]  # M2, M4, M5, M6, M7 as (base, extra)
    gamma: tuple[tuple[int, int], ...]

    def multiplicity_values(self) -> tuple[int, ...]:
        return tuple(base + extra for base, extra in self.multiplicities)

    def gamma_values(self) -> tuple[int, ...]:
        return tuple(base + extra for base, extra in self.gamma)


@dataclass(frozen=True, slots=True)
class SeriesEntry:
    name: str
    display: str
    dual_name: str
    substitution_case: str
    kernel: tuple[int, int, int, int]
    relation: Polynomial
    source_terms: tuple[Polynomial, ...]
    duality_terms: tuple[Polynomial, ...]
    k0_equations: tuple[Polynomial, Polynomial] | None
    k0_restrictions: str | None
    k0_weights: WeightSystem
    dual_k0_weights: WeightSystem
    wall_equations: tuple[Polynomial, Polynomial]
    sign_note: str
    virtual_equations: mf.CompleteIntersectionPair
    matfac: mf.FactorizationTriple
    parent: ParentData
    decomposition: tuple[Decomposition, Decomposition]
    dolgachev: tuple[tuple[int, int], tuple[int, int]]
    gabrielov: tuple[tuple[int, int], tuple[int, int]]
    zeta_frame: FrameProduct
    dynkin: DynkinData

    @property
    def source_poly(self) -> Polynomial:
        total = Polynomial.zero()
        for term in self.source_terms:
            total = total + term
        return total

    @property
    def duality_poly(self) -> Polynomial:
        total = Polynomial.zero()
        for term in self.duality_terms:
            total = total + term
        return total

    def exponent_matrix(self) -> ExponentMatrix:
        """Exponent matrix of the four-term polynomial, rows in the
        catalog's stored term order (the order transposition respects)."""
        return from_terms(self.duality_terms, allow_singular=True)

    def dolgachev_flat(self) -> tuple[int, int, int, int]:
        return self.dolgachev[0] + self.dolgachev[1]

    def gabrielov_flat(self) -> tuple[int, int, int, int]:
        return self.gabrielov[0] + self.gabrielov[1]


@dataclass(frozen=True, slots=True)
class Catalog:
    entries: tuple[SeriesEntry, ...]

    def names(self) -> tuple[str, ...]:
        return tuple(e.name for e in self.entries)

    def get(self, name: str) -> SeriesEntry:
        key = canonical_name(name)
        for entry in self.entries:
            if entry.name == key:
                return entry
        raise CatalogError(f"no catalog entry named {name!r}")

    def dual_of(self, entry: SeriesEntry) -> SeriesEntry:
        return self.get(entry.dual_name)

    def __len__(self) -> int:
        return len(self.entries)


# -- loading ------------------------------------------------------------------


def default_catalog_path() -> str:
    return str(resources.files("strangedual").joinpath("data/catalog.json"))


def _parse_pair_list(value, where: str) -> tuple[tuple[int, int], ...]:
    try:
        pairs = tuple((int(a), int(b)) for a, b in value)
    except (TypeError, ValueError) as exc:
        raise CatalogError(f"{where}: expected [base, extra] pairs: {exc}") from None
    return pairs


def _load_entry(raw: dict, index: int) -> SeriesEntry:
    name = raw.get("name", f"#{index}")
    where = f"entry {name}"

    def need(key: str, kind: type = object, length: int | None = None):
        if key not in raw:
            raise CatalogError(f"{where}: missing field {key!r}")
        return shaped(key, raw[key], kind, length)

    def shaped(key: str, value, kind: type, length: int | None = None):
        if isinstance(value, kind) and (length is None or len(value) == length):
            return value
        size = "" if length is None else f" of {length}"
        raise CatalogError(
            f"{where}: field {key!r}: expected a {kind.__name__}{size}, got {type(value).__name__}"
        )

    def string(key: str, value) -> str:
        if not isinstance(value, str):
            raise CatalogError(
                f"{where}: field {key!r}: expected a string, got {type(value).__name__}"
            )
        return value

    def poly(key: str, text) -> Polynomial:
        try:
            return parse_poly(string(key, text))
        except PolynomialError as exc:
            raise CatalogError(f"{where}: field {key!r}: {exc}") from None

    case = need("substitution_case")
    if case not in SUBSTITUTION_CASES:
        raise CatalogError(f"{where}: unknown substitution case {case!r}")
    try:
        kernel = tuple(int(v) for v in need("kernel"))
    except (TypeError, ValueError) as exc:
        raise CatalogError(f"{where}: kernel: expected integers: {exc}") from None
    if kernel != SUBSTITUTION_CASES[case]["kernel"]:
        raise CatalogError(
            f"{where}: kernel {kernel} does not match case ({case})"
        )

    source_terms = tuple(poly("source_terms", t) for t in need("source_terms"))
    duality_terms = tuple(poly("duality_poly_terms", t) for t in need("duality_poly_terms"))
    for key, terms in (("source_terms", source_terms), ("duality_poly_terms", duality_terms)):
        if len(terms) != 4:
            raise CatalogError(f"{where}: field {key!r}: need 4 terms, got {len(terms)}")
        for term in terms:
            if len(term) != 1 or term.coefficient(term.leading_monomial()) != 1:
                raise CatalogError(
                    f"{where}: field {key!r}: {term} is not a monic monomial"
                )

    k0_raw = need("k0_equations")
    if k0_raw is None:
        k0_equations = None
    else:
        k0_raw = shaped("k0_equations", k0_raw, list, 2)
        k0_equations = (poly("k0_equations", k0_raw[0]), poly("k0_equations", k0_raw[1]))

    try:
        k0_weights = parse_weight_system(string("k0_weights", need("k0_weights")))
        dual_k0_weights = parse_weight_system(string("dual_k0_weights", need("dual_k0_weights")))
    except SeriesError as exc:
        raise CatalogError(f"{where}: weight system: {exc}") from None

    wall_raw = need("wall_equations", list, 2)
    wall = (poly("wall_equations", wall_raw[0]), poly("wall_equations", wall_raw[1]))

    virt_raw = need("virtual_equations", list, 2)
    try:
        virtual = mf.CompleteIntersectionPair(
            poly("virtual_equations", virt_raw[0]), poly("virtual_equations", virt_raw[1])
        )
    except mf.MatfacError as exc:
        raise CatalogError(f"{where}: virtual_equations: {exc}") from None

    mf_raw = need("matfac", dict)
    try:
        triple = mf.FactorizationTriple(
            poly("matfac.a", mf_raw["a"]),
            poly("matfac.b", mf_raw["b"]),
            poly("matfac.c", mf_raw["c"]),
        )
    except KeyError as exc:
        raise CatalogError(f"{where}: matfac: missing {exc}") from None
    except mf.MatfacError as exc:
        raise CatalogError(f"{where}: matfac: {exc}") from None

    parent_raw = need("parent", dict)
    try:
        change_raw = shaped("parent.change", parent_raw["change"], dict)
        parent = ParentData(
            name=parent_raw["name"],
            series=parent_raw["series"],
            coefficients=tuple(Fraction(c) for c in parent_raw["coefficients"]),
            f=poly("parent.f", parent_raw["f"]),
            change=Substitution.from_mapping(change_raw),
            change_display="; ".join(f"{k} -> {v}" for k, v in change_raw.items()),
            h=poly("parent.h", parent_raw["h"]),
        )
    except KeyError as exc:
        raise CatalogError(f"{where}: parent: missing {exc}") from None

    pieces = [shaped("decomposition", piece, dict) for piece in need("decomposition", list, 2)]
    try:
        decomposition = tuple(
            Decomposition(
                poly("decomposition.poly", piece["poly"]),
                parse_weight_system(string("decomposition.weights", piece["weights"])),
            )
            for piece in pieces
        )
    except KeyError as exc:
        raise CatalogError(f"{where}: decomposition: missing {exc}") from None
    except SeriesError as exc:
        raise CatalogError(f"{where}: decomposition: {exc}") from None

    dolgachev = _parse_pair_list(need("dolgachev"), f"{where}: dolgachev")
    gabrielov = _parse_pair_list(need("gabrielov"), f"{where}: gabrielov")
    if len(dolgachev) != 2 or len(gabrielov) != 2:
        raise CatalogError(f"{where}: dolgachev/gabrielov must be two pairs")

    try:
        zeta = parse_frame(string("zeta_frame", need("zeta_frame")))
    except SeriesError as exc:
        raise CatalogError(f"{where}: zeta_frame: {exc}") from None

    dk = need("dynkin", dict)
    try:
        dynkin = DynkinData(
            germ=dk["germ"],
            multiplicities=_parse_pair_list(
                [dk[k] for k in ("M2", "M4", "M5", "M6", "M7")], f"{where}: dynkin"
            ),
            gamma=_parse_pair_list(dk["gamma"], f"{where}: dynkin.gamma"),
        )
    except KeyError as exc:
        raise CatalogError(f"{where}: dynkin: missing field {exc}") from None

    return SeriesEntry(
        name=name,
        display=need("display"),
        dual_name=need("dual"),
        substitution_case=case,
        kernel=kernel,
        relation=poly("relation", need("relation")),
        source_terms=source_terms,
        duality_terms=duality_terms,
        k0_equations=k0_equations,
        k0_restrictions=raw.get("k0_restrictions"),
        k0_weights=k0_weights,
        dual_k0_weights=dual_k0_weights,
        wall_equations=wall,
        sign_note=raw.get("sign_note", ""),
        virtual_equations=virtual,
        matfac=triple,
        parent=parent,
        decomposition=decomposition,
        dolgachev=tuple(tuple(p) for p in dolgachev),
        gabrielov=tuple(tuple(p) for p in gabrielov),
        zeta_frame=zeta,
        dynkin=dynkin,
    )


def _validate(catalog: Catalog) -> None:
    names = catalog.names()
    if len(set(names)) != len(names):
        raise CatalogError("duplicate entry names")
    for entry in catalog.entries:
        where = f"entry {entry.name}"
        try:
            dual = catalog.get(entry.dual_name)
        except CatalogError:
            raise CatalogError(f"{where}: dual {entry.dual_name!r} not in catalog") from None
        if dual.dual_name != entry.name:
            raise CatalogError(
                f"{where}: duality is not an involution "
                f"({entry.name} -> {entry.dual_name} -> {dual.dual_name})"
            )
        total = sum(entry.gabrielov_flat())
        if total != 12:
            raise CatalogError(f"{where}: Gabrielov numbers sum to {total}, expected 12")
        msum = 3 + sum(entry.dynkin.multiplicity_values())
        if msum != 13:
            raise CatalogError(
                f"{where}: thimble multiplicities 3 + sum(M_j) = {msum}, expected 13"
            )
        if entry.dynkin.gamma_values() != entry.gabrielov_flat():
            raise CatalogError(
                f"{where}: annotated arm parameters {entry.dynkin.gamma_values()} "
                f"disagree with Gabrielov numbers {entry.gabrielov_flat()}"
            )


def load_catalog(source: str | None = None) -> Catalog:
    """Load and validate a catalog file; ``None`` loads the shipped data."""
    if source is None:
        text = resources.files("strangedual").joinpath("data/catalog.json").read_text("utf-8")
    else:
        with open(source, "r", encoding="utf-8") as handle:
            text = handle.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CatalogError(f"invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise CatalogError(f"expected a JSON object at the top level, got {type(raw).__name__}")
    if raw.get("schema") != 1:
        raise CatalogError(f"unsupported schema {raw.get('schema')!r}")
    items = raw.get("entries", [])
    if not isinstance(items, list) or not all(isinstance(item, dict) for item in items):
        raise CatalogError("'entries' must be a list of JSON objects")
    entries = tuple(_load_entry(item, i) for i, item in enumerate(items))
    catalog = Catalog(entries)
    _validate(catalog)
    return catalog


# -- verification -------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CheckResult:
    number: int
    label: str
    passed: bool
    details: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "id": self.number,
            "label": self.label,
            "passed": self.passed,
            "details": list(self.details),
        }


@dataclass(frozen=True, slots=True)
class EntryReport:
    name: str
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {"name": self.name, "checks": [c.to_json() for c in self.checks]}


@dataclass(frozen=True, slots=True)
class CatalogReport:
    entries: tuple[EntryReport, ...]
    warnings: tuple[str, ...] = ()

    @property
    def total(self) -> int:
        return sum(len(e.checks) for e in self.entries)

    @property
    def passed(self) -> int:
        return sum(1 for e in self.entries for c in e.checks if c.passed)

    @property
    def ok(self) -> bool:
        return self.passed == self.total

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "entries": [e.to_json() for e in self.entries],
            "warnings": list(self.warnings),
            "passed": self.passed,
            "total": self.total,
        }

    def to_text(self) -> str:
        lines = []
        for entry in self.entries:
            for check in entry.checks:
                status = "PASS" if check.passed else "FAIL"
                lines.append(f"{entry.name:3s} [{check.number:2d}] {check.label:<28s} {status}")
                if not check.passed:
                    for detail in check.details:
                        lines.append(f"      - {detail}")
        for warning in self.warnings:
            lines.append(f"warning: {warning}")
        lines.append(f"{self.passed}/{self.total} checks passed")
        return "\n".join(lines)


def report_from_json(data: dict) -> CatalogReport:
    """Rebuild a report from its JSON form (lossless round-trip)."""
    entries = tuple(
        EntryReport(
            name=e["name"],
            checks=tuple(
                CheckResult(c["id"], c["label"], c["passed"], tuple(c["details"]))
                for c in e["checks"]
            ),
        )
        for e in data["entries"]
    )
    return CatalogReport(entries, tuple(data.get("warnings", ())))


_XZW = parse_poly("x*z*w")


def _result(number: int, label: str, failures: list[str], notes: Iterable[str] = ()) -> CheckResult:
    details = tuple(failures) + tuple(notes)
    return CheckResult(number, label, not failures, details)


def _check_matfac(entry: SeriesEntry) -> CheckResult:
    failures = []
    triple = entry.matfac
    try:
        f = mf.verify_factorization(triple)
        if f != entry.parent.h:
            failures.append(f"x*c + a*b = {f} but parent h = {entry.parent.h}")
    except mf.MatfacError as exc:
        failures.append(f"factorization identity failed: {exc}")
    lifted = mf.lift(triple)
    if (lifted.first, lifted.second) != (
        entry.virtual_equations.first,
        entry.virtual_equations.second,
    ):
        failures.append(f"lift gives {lifted}, catalog has {entry.virtual_equations}")
    try:
        reduced = mf.reduce(entry.virtual_equations)
        if reduced != entry.parent.h:
            failures.append(f"reduce(lift) = {reduced} != printed h = {entry.parent.h}")
    except mf.MatfacError as exc:
        failures.append(f"reduction failed: {exc}")
    return _result(1, "matrix factorization", failures)


def _check_coordinate_change(entry: SeriesEntry) -> CheckResult:
    failures = []
    parent = entry.parent
    cusp = parent.f - _XZW
    transformed = cusp.substitute(parent.change)
    expected = parent.h - _XZW
    if transformed != expected:
        failures.append(
            f"(f - xzw) under {parent.change_display} = {transformed}, expected {expected}"
        )
    return _result(2, "coordinate change f -> h", failures)


def _check_substitution(entry: SeriesEntry) -> CheckResult:
    failures = []
    case = SUBSTITUTION_CASES[entry.substitution_case]
    if entry.relation != parse_poly(case["relation"]):
        failures.append(
            f"relation {entry.relation} is not the case ({entry.substitution_case}) "
            f"form {case['relation']}"
        )
    sub = Substitution.from_mapping(case["substitution"])
    for i, (source, target) in enumerate(zip(entry.source_terms, entry.duality_terms)):
        image = source.substitute(sub)
        if image != target:
            failures.append(f"term {i + 1}: {source} -> {image}, catalog has {target}")
    if entry.source_poly.substitute(sub) != entry.duality_poly:
        failures.append("substituted second equation differs from the catalog polynomial")
    return _result(3, "case substitution", failures)


def _check_kernel(entry: SeriesEntry) -> CheckResult:
    failures = []
    matrix = entry.exponent_matrix()
    image = matrix.apply(entry.kernel)
    if any(v != 0 for v in image):
        failures.append(f"E * {entry.kernel} = {tuple(map(str, image))} != 0")
    return _result(4, "kernel vector", failures)


def _check_duality(entry: SeriesEntry, catalog: Catalog) -> CheckResult:
    failures = []
    dual = catalog.dual_of(entry)
    transposed = bh_transpose(entry.exponent_matrix())
    if transposed.row_multiset() != dual.exponent_matrix().row_multiset():
        failures.append(
            f"transpose rows {transposed.row_multiset()} != dual rows "
            f"{dual.exponent_matrix().row_multiset()}"
        )
    return _result(5, "transpose duality", failures)


def _quasi_check(label: str, p: Polynomial, weights, expected: int, failures: list[str]):
    verdict = quasi_degree(p, weights)
    if isinstance(verdict, QuasiFailure):
        failures.append(f"{label}: {verdict}")
    elif verdict != expected:
        failures.append(f"{label}: degree {verdict}, expected {expected}")


def _check_quasi_homogeneity(entry: SeriesEntry) -> CheckResult:
    failures = []
    notes = []
    if entry.k0_equations is None:
        notes.append("k = 0 equations not recorded for this series; skipped")
    else:
        ws = entry.k0_weights
        _quasi_check("k0 first equation", entry.k0_equations[0], ws.weights, ws.degrees[0], failures)
        _quasi_check("k0 second equation", entry.k0_equations[1], ws.weights, ws.degrees[1], failures)
    h1 = entry.virtual_equations.first
    for i, piece in enumerate(entry.decomposition, start=1):
        ws = piece.weights
        _quasi_check(f"pair {i} h1", h1, ws.weights, ws.degrees[0], failures)
        _quasi_check(f"pair {i} h2,{i}", piece.polynomial, ws.weights, ws.degrees[1], failures)
    return _result(6, "quasi-homogeneity", failures, notes)


def _check_newton_split(entry: SeriesEntry) -> CheckResult:
    failures = []
    h1 = entry.virtual_equations.first
    h2 = entry.virtual_equations.second
    try:
        split = split_newton(h2, h1)
    except (OrbitError, PolynomialError) as exc:
        return _result(7, "Newton split", [f"split failed: {exc}"])
    for i, (face, piece) in enumerate(zip(split.faces, entry.decomposition), start=1):
        if face.polynomial != piece.polynomial:
            failures.append(f"face {i}: {face.polynomial}, catalog has {piece.polynomial}")
        if face.weights != piece.weights:
            failures.append(f"face {i} weights: {face.weights}, catalog has {piece.weights}")
    return _result(7, "Newton split", failures)


def _check_dolgachev(entry: SeriesEntry) -> CheckResult:
    failures = []
    h1 = entry.virtual_equations.first
    for i, piece in enumerate(entry.decomposition):
        action = CStarAction(piece.weights.weights)
        try:
            pair = dolgachev_pair(h1, piece.polynomial, action)
        except (OrbitError, PolynomialError) as exc:
            failures.append(f"pair {i + 1}: {exc}")
            continue
        expected = tuple(sorted(entry.dolgachev[i]))
        if pair != expected:
            failures.append(f"pair {i + 1}: computed {pair}, catalog has {expected}")
    return _result(8, "Dolgachev numbers", failures)


def _check_zeta(entry: SeriesEntry, catalog: Catalog) -> CheckResult:
    failures = []
    dual = catalog.dual_of(entry)
    product = poincare(entry.dual_k0_weights) * or_polynomial(dual.dolgachev_flat())
    if product != entry.zeta_frame:
        failures.append(
            f"P(dual weights) * Or(dual Dolgachev) = {product}, catalog has {entry.zeta_frame}"
        )
    coxeter = charpoly_S(entry.gabrielov_flat())
    try:
        expanded = frame_to_polynomial(entry.zeta_frame)
    except NotPolynomialError as exc:
        failures.append(f"frame does not expand to a polynomial: {exc}")
    else:
        if expanded != coxeter:
            failures.append(
                f"frame expands to {expanded}, Coxeter formula gives {coxeter}"
            )
    return _result(9, "zeta identity", failures)


def _normalised_pairs(pairs) -> tuple[tuple[int, int], tuple[int, int]]:
    return (tuple(sorted(pairs[0])), tuple(sorted(pairs[1])))


def _check_strange_duality(entry: SeriesEntry, catalog: Catalog) -> CheckResult:
    failures = []
    dual = catalog.dual_of(entry)
    gab = _normalised_pairs(entry.gabrielov)
    dol = _normalised_pairs(dual.dolgachev)
    if gab != dol and gab != (dol[1], dol[0]):
        failures.append(f"Gab({entry.name}) = {gab}, Dol({dual.name}) = {dol}")
    return _result(10, "strange duality", failures)


def verify_entry(entry: SeriesEntry, catalog: Catalog) -> EntryReport:
    """Run the ten checks for one entry (duality checks need the catalog)."""
    checks = (
        _check_matfac(entry),
        _check_coordinate_change(entry),
        _check_substitution(entry),
        _check_kernel(entry),
        _check_duality(entry, catalog),
        _check_quasi_homogeneity(entry),
        _check_newton_split(entry),
        _check_dolgachev(entry),
        _check_zeta(entry, catalog),
        _check_strange_duality(entry, catalog),
    )
    return EntryReport(entry.name, checks)


def verify_all(catalog: Catalog) -> CatalogReport:
    """Verify every entry; vacuously passing (with a warning) when empty."""
    warnings = ()
    if not catalog.entries:
        warnings = ("catalog is empty; nothing verified",)
    reports = tuple(verify_entry(entry, catalog) for entry in catalog.entries)
    return CatalogReport(reports, warnings)
