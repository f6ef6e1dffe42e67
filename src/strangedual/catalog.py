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
import os
import re
from fractions import Fraction
from collections import namedtuple
from collections.abc import Callable, Iterable

from . import matfac as mf
from ._errors import StrangedualError
from .coxeter import charpoly_S
from .invertible import ExponentMatrix, bh_transpose, from_terms
from .orbits import CStarAction, dolgachev_pair, split_newton
from .polyring import (
    Polynomial,
    PolynomialError,
    QuasiFailure,
    parse_poly,
    quasi_degree,
)
from .series import (
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


class CatalogError(StrangedualError):
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


class ParentData(namedtuple("ParentData", "name series coefficients f change change_display h")):
    """Parent hypersurface of a series: cusp equation f, the coordinate
    change turning f - xzw into h - xzw (a {name: image} mapping), and the
    reduced polynomial h."""

    __slots__ = ()


class Decomposition(namedtuple("Decomposition", "polynomial weights")):
    """One face polynomial of the Newton split with its weight system."""

    __slots__ = ()


class DynkinData(namedtuple("DynkinData", "germ multiplicities gamma")):
    """Coxeter-Dynkin bookkeeping: germ name, thimble multiplicities M2,
    M4, M5, M6, M7 as (base, extra) '+1' annotations, and the annotated
    arm parameters."""

    __slots__ = ()

    def multiplicity_values(self) -> tuple[int, ...]:
        return tuple(base + extra for base, extra in self.multiplicities)

    def gamma_values(self) -> tuple[int, ...]:
        return tuple(base + extra for base, extra in self.gamma)


_ENTRY_FIELDS = (
    "name display dual_name substitution_case kernel relation source_terms duality_terms"
    " k0_equations k0_restrictions k0_weights dual_k0_weights wall_equations sign_note"
    " virtual_equations matfac parent decomposition dolgachev gabrielov zeta_frame dynkin"
)


class SeriesEntry(namedtuple("SeriesEntry", _ENTRY_FIELDS)):
    __slots__ = ()

    @property
    def source_poly(self) -> Polynomial:
        return sum(self.source_terms, Polynomial.zero())

    @property
    def duality_poly(self) -> Polynomial:
        return sum(self.duality_terms, Polynomial.zero())

    def exponent_matrix(self) -> ExponentMatrix:
        """Exponent matrix of the four-term polynomial, rows in the
        catalog's stored term order (the order transposition respects)."""
        return from_terms(self.duality_terms)

    def dolgachev_flat(self) -> tuple[int, int, int, int]:
        return self.dolgachev[0] + self.dolgachev[1]

    def gabrielov_flat(self) -> tuple[int, int, int, int]:
        return self.gabrielov[0] + self.gabrielov[1]


class Catalog(namedtuple("Catalog", "entries")):
    __slots__ = ()

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


# -- loading ------------------------------------------------------------------


def default_catalog_path() -> str:
    return os.path.join(os.path.dirname(__file__), "data", "catalog.json")


_MISSING = object()  # the value of an absent key


#: How one JSON value of a catalog entry loads: what an error says was
#: expected; the exact JSON types taken (a bool is not an int); the function
#: that builds the value, which may raise a domain error; the kind of each
#: list item or mapping value; the length of a list; an object's (key, kind)
#: fields, in record-field order; whether null loads as None; and a missing
#: key's value (_MISSING refuses it).
_Kind = namedtuple(
    "_Kind",
    "label types load item size fields null default",
    defaults=(None, None, None, (), False, _MISSING),
)


def _refused(path: str, kind: _Kind, value) -> CatalogError:
    if value is _MISSING:
        return CatalogError(f"missing field {path!r}")
    got = f"a list of {len(value)}" if type(value) is list else type(value).__name__
    expected = f"{kind.label} or null" if kind.null else kind.label
    return CatalogError(f"field {path!r}: expected {expected}, got {got}")


def _walk(kind: _Kind, value, path: str):
    """Check ``value`` against ``kind`` and load it; ``path`` names it in errors."""
    _, types, load, item, size, fields, null, default = kind
    if type(value) not in types or (size is not None and len(value) != size):
        if value is _MISSING and default is not _MISSING:
            return default
        if value is None and null:
            return None
        raise _refused(path, kind, value)
    # Plain loops: a comprehension would make cells of this frame's locals on every call.
    try:
        if fields:
            prefix = f"{path}." if path else ""
            values = []
            for key, sub in fields:
                values.append(_walk(sub, value.get(key, _MISSING), prefix + key))
            value = tuple(values)
        elif item is not None:  # an item's path is its container's
            # An item of a plain string or integer kind, of the right type, is taken as it is.
            plain = () if item.item or item.fields or item.load else item.types
            values = []
            for v in value.values() if type(value) is dict else value:
                values.append(v if type(v) in plain else _walk(item, v, path))
            value = dict(zip(value, values)) if type(value) is dict else tuple(values)
        return value if load is None else load(value)
    except (PolynomialError, SeriesError, mf.MatfacError) as exc:
        raise CatalogError(f"field {path!r}: {exc}") from None


#: An integer, or p/q with q > 0, in ASCII digits.
_RATIONAL_TEXT = re.compile(r"(-?[0-9]+)(?:/0*([1-9][0-9]*))?")


def _rational(value: int | str) -> Fraction:
    if type(value) is int:
        return Fraction(value)
    match = _RATIONAL_TEXT.fullmatch(value)
    if match is None:
        raise PolynomialError("not an integer or a fraction p/q")
    try:  # integers, as Fraction(str) is several times slower
        return Fraction(int(match[1]), int(match[2] or 1))
    except ValueError:  # more digits than int() converts
        raise PolynomialError("coefficient too long") from None


def _monic_monomial(text: str) -> Polynomial:
    term = parse_poly(text)
    if len(term) != 1 or term.coefficient(term.leading_monomial()) != 1:
        raise PolynomialError(f"{term} is not a monic monomial")
    return term


def _weight_system(text: str) -> WeightSystem:
    weights = parse_weight_system(text)
    if len(weights.weights) != 4 or len(weights.degrees) != 2:
        raise SeriesError(f"need 4 weights and 2 degrees, got {weights}")
    return weights


def _change(mapping: dict) -> tuple[dict[str, Polynomial], str]:
    return _images(mapping), "; ".join(f"{k} -> {v}" for k, v in mapping.items())


def _images(mapping: dict) -> dict[str, Polynomial]:
    # The {name: text} images of a substitution parsed, each name checked first.
    images = {}
    for name, text in mapping.items():
        Polynomial.variable(name)  # raises on an unknown name
        images[name] = parse_poly(text)
    return images


def _parent(values: tuple) -> ParentData:
    name, series, coefficients, f, (change, display), h = values
    return ParentData(name, series, coefficients, f, change, display, h)


def _list(item: _Kind, size: int | None = None, load: Callable | None = None) -> _Kind:
    label = "a list" if size is None else f"a list of {size}"
    return _Kind(label, (list,), load, item, size)


def _record(load: Callable, *fields: tuple[str, _Kind]) -> _Kind:
    return _Kind("a dict", (dict,), load, fields=fields)


_STRING = _Kind("a string", (str,))
# Looked up at call time, so a wrapper on the module global sees each call.
_POLY = _STRING._replace(load=lambda text: parse_poly(text))
_MONOMIAL = _STRING._replace(load=_monic_monomial)
_WEIGHTS = _STRING._replace(load=_weight_system)
_INTEGER = _Kind("an integer", (int,))
_PAIR = _list(_INTEGER, 2)
_PARENT = _record(
    _parent,
    ("name", _STRING),
    ("series", _STRING),
    ("coefficients", _list(_Kind("an exact rational", (int, str), _rational))),
    ("f", _POLY),
    ("change", _Kind("a dict", (dict,), _change, _STRING)),
    ("h", _POLY),
)
_DECOMPOSITION = _record(Decomposition._make, ("poly", _POLY), ("weights", _WEIGHTS))
_DYNKIN = _record(
    lambda v: DynkinData(v[0], v[1:6], v[6]),
    ("germ", _STRING),
    *((key, _PAIR) for key in ("M2", "M4", "M5", "M6", "M7")),
    ("gamma", _list(_PAIR, 4)),
)

#: A catalog entry, key by key in ``SeriesEntry`` field order.
_ENTRY = _record(
    SeriesEntry._make,
    ("name", _STRING),
    ("display", _STRING),
    ("dual", _STRING),
    ("substitution_case", _STRING),
    ("kernel", _list(_INTEGER, 4)),
    ("relation", _POLY),
    ("source_terms", _list(_MONOMIAL, 4)),
    ("duality_poly_terms", _list(_MONOMIAL, 4)),
    ("k0_equations", _list(_POLY, 2)._replace(null=True)),
    ("k0_restrictions", _STRING._replace(null=True, default=None)),
    ("k0_weights", _WEIGHTS),
    ("dual_k0_weights", _WEIGHTS),
    ("wall_equations", _list(_POLY, 2)),
    ("sign_note", _STRING._replace(default="")),
    ("virtual_equations", _list(_POLY, 2, lambda pair: mf.CompleteIntersectionPair(*pair))),
    ("matfac", _record(lambda abc: mf.FactorizationTriple(*abc), *((k, _POLY) for k in "abc"))),
    ("parent", _PARENT),
    ("decomposition", _list(_DECOMPOSITION, 2)),
    ("dolgachev", _list(_PAIR, 2)),
    ("gabrielov", _list(_PAIR, 2)),
    ("zeta_frame", _STRING._replace(load=lambda text: parse_frame(text))),
    ("dynkin", _DYNKIN),
)


def _load_entry(raw: dict, index: int) -> SeriesEntry:
    name = raw.get("name")
    try:
        entry = _walk(_ENTRY, raw, "")
        case = entry.substitution_case
        if case not in SUBSTITUTION_CASES:
            raise CatalogError(f"unknown substitution case {case!r}")
        if entry.kernel != SUBSTITUTION_CASES[case]["kernel"]:
            raise CatalogError(f"kernel {entry.kernel} does not match case ({case})")
    except CatalogError as exc:
        raise CatalogError(f"entry {name if type(name) is str else f'#{index}'}: {exc}") from None
    return entry


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
    try:
        with open(default_catalog_path() if source is None else source, encoding="utf-8") as handle:
            raw = json.load(handle)
    except (ValueError, RecursionError) as exc:  # undecodable bytes, int digit limit, nesting
        raise CatalogError(f"invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise CatalogError(f"expected a JSON object at the top level, got {type(raw).__name__}")
    schema = raw.get("schema")
    if type(schema) is not int or schema != 1:  # JSON true and 1.0 equal 1 too
        raise CatalogError(f"unsupported schema {schema!r}")
    items = raw.get("entries", [])
    if not isinstance(items, list) or not all(isinstance(item, dict) for item in items):
        raise CatalogError("'entries' must be a list of JSON objects")
    entries = tuple(_load_entry(item, i) for i, item in enumerate(items))
    catalog = Catalog(entries)
    _validate(catalog)
    return catalog


# -- verification -------------------------------------------------------------


class CheckResult(namedtuple("CheckResult", "number label passed details", defaults=((),))):
    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "id": self.number,
            "label": self.label,
            "passed": self.passed,
            "details": list(self.details),
        }


class EntryReport(namedtuple("EntryReport", "name checks")):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {"name": self.name, "checks": [c.to_json() for c in self.checks]}


class CatalogReport(namedtuple("CatalogReport", "entries warnings", defaults=((),))):
    __slots__ = ()

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

#: Each case's relation and images, parsed once.
_SUBSTITUTIONS = {
    name: (parse_poly(case["relation"]), _images(case["substitution"]))
    for name, case in SUBSTITUTION_CASES.items()
}

#: The label of check n is ``_LABELS[n - 1]``.
_LABELS = (
    "matrix factorization",
    "coordinate change f -> h",
    "case substitution",
    "kernel vector",
    "transpose duality",
    "quasi-homogeneity",
    "Newton split",
    "Dolgachev numbers",
    "zeta identity",
    "strange duality",
)


def _result(number: int, failures: list[str], notes: Iterable[str] = ()) -> CheckResult:
    return CheckResult(number, _LABELS[number - 1], not failures, tuple(failures) + tuple(notes))


def _check_matfac(entry: SeriesEntry, catalog: Catalog) -> CheckResult:
    failures = []
    f = mf.verify_factorization(entry.matfac)
    if f != entry.parent.h:
        failures.append(f"x*c + a*b = {f} but parent h = {entry.parent.h}")
    lifted = mf.lift(entry.matfac)
    if lifted != entry.virtual_equations:
        failures.append(f"lift gives {lifted}, catalog has {entry.virtual_equations}")
    reduced = mf.reduce(entry.virtual_equations)
    if reduced != entry.parent.h:
        failures.append(f"reduce(lift) = {reduced} != printed h = {entry.parent.h}")
    return _result(1, failures)


def _check_coordinate_change(entry: SeriesEntry, catalog: Catalog) -> CheckResult:
    failures = []
    parent = entry.parent
    cusp = parent.f - _XZW
    transformed = cusp.substitute(parent.change)
    expected = parent.h - _XZW
    if transformed != expected:
        failures.append(
            f"(f - xzw) under {parent.change_display} = {transformed}, expected {expected}"
        )
    return _result(2, failures)


def _check_substitution(entry: SeriesEntry, catalog: Catalog) -> CheckResult:
    failures = []
    relation, sub = _SUBSTITUTIONS[entry.substitution_case]
    if entry.relation != relation:
        failures.append(
            f"relation {entry.relation} is not the case ({entry.substitution_case}) "
            f"form {SUBSTITUTION_CASES[entry.substitution_case]['relation']}"
        )
    for i, (source, target) in enumerate(zip(entry.source_terms, entry.duality_terms)):
        image = source.substitute(sub)
        if image != target:
            failures.append(f"term {i + 1}: {source} -> {image}, catalog has {target}")
    if entry.source_poly.substitute(sub) != entry.duality_poly:
        failures.append("substituted second equation differs from the catalog polynomial")
    return _result(3, failures)


def _check_kernel(entry: SeriesEntry, catalog: Catalog) -> CheckResult:
    failures = []
    matrix = entry.exponent_matrix()
    image = matrix.apply(entry.kernel)
    if any(v != 0 for v in image):
        failures.append(f"E * {entry.kernel} = {tuple(map(str, image))} != 0")
    return _result(4, failures)


def _check_duality(entry: SeriesEntry, catalog: Catalog) -> CheckResult:
    failures = []
    dual = catalog.dual_of(entry)
    transposed = bh_transpose(entry.exponent_matrix())
    if transposed.row_multiset() != dual.exponent_matrix().row_multiset():
        failures.append(
            f"transpose rows {transposed.row_multiset()} != dual rows "
            f"{dual.exponent_matrix().row_multiset()}"
        )
    return _result(5, failures)


def _quasi_check(label: str, p: Polynomial, weights, expected: int, failures: list[str]):
    verdict = quasi_degree(p, weights)
    if isinstance(verdict, QuasiFailure):
        failures.append(f"{label}: {verdict}")
    elif verdict != expected:
        failures.append(f"{label}: degree {verdict}, expected {expected}")


def _check_quasi_homogeneity(entry: SeriesEntry, catalog: Catalog) -> CheckResult:
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
    return _result(6, failures, notes)


def _check_newton_split(entry: SeriesEntry, catalog: Catalog) -> CheckResult:
    failures = []
    split = split_newton(entry.virtual_equations.second, entry.virtual_equations.first)
    for i, (face, piece) in enumerate(zip(split.faces, entry.decomposition), start=1):
        if face.polynomial != piece.polynomial:
            failures.append(f"face {i}: {face.polynomial}, catalog has {piece.polynomial}")
        if face.weights != piece.weights:
            failures.append(f"face {i} weights: {face.weights}, catalog has {piece.weights}")
    return _result(7, failures)


def _check_dolgachev(entry: SeriesEntry, catalog: Catalog) -> CheckResult:
    failures = []
    h1 = entry.virtual_equations.first
    for i, piece in enumerate(entry.decomposition):
        action = CStarAction(piece.weights.weights)
        try:
            pair = dolgachev_pair(h1, piece.polynomial, action)
        except StrangedualError as exc:  # named by its pair; the other pair is still checked
            failures.append(f"pair {i + 1}: {exc}")
            continue
        expected = tuple(sorted(entry.dolgachev[i]))
        if pair != expected:
            failures.append(f"pair {i + 1}: computed {pair}, catalog has {expected}")
    return _result(8, failures)


def _check_zeta(entry: SeriesEntry, catalog: Catalog) -> CheckResult:
    failures = []
    dual = catalog.dual_of(entry)
    product = poincare(entry.dual_k0_weights) * or_polynomial(dual.dolgachev_flat())
    if product != entry.zeta_frame:
        failures.append(
            f"P(dual weights) * Or(dual Dolgachev) = {product}, catalog has {entry.zeta_frame}"
        )
    coxeter = charpoly_S(entry.gabrielov_flat())
    expanded = frame_to_polynomial(entry.zeta_frame)
    if expanded != coxeter:
        failures.append(f"frame expands to {expanded}, Coxeter formula gives {coxeter}")
    return _result(9, failures)


def _normalised_pairs(pairs) -> tuple[tuple[int, int], tuple[int, int]]:
    return (tuple(sorted(pairs[0])), tuple(sorted(pairs[1])))


def _check_strange_duality(entry: SeriesEntry, catalog: Catalog) -> CheckResult:
    failures = []
    dual = catalog.dual_of(entry)
    gab = _normalised_pairs(entry.gabrielov)
    dol = _normalised_pairs(dual.dolgachev)
    if gab != dol and gab != (dol[1], dol[0]):
        failures.append(f"Gab({entry.name}) = {gab}, Dol({dual.name}) = {dol}")
    return _result(10, failures)


def verify_entry(entry: SeriesEntry, catalog: Catalog) -> EntryReport:
    """Run the ten checks for one entry (duality checks need the catalog).
    A domain error raised in a check is that check's FAIL line."""
    # Looked up at call time, so a wrapper on a module global sees each call.
    walk = (_check_matfac, _check_coordinate_change, _check_substitution, _check_kernel,
            _check_duality, _check_quasi_homogeneity, _check_newton_split, _check_dolgachev,
            _check_zeta, _check_strange_duality)
    checks = []
    for number, check in enumerate(walk, start=1):
        try:
            checks.append(check(entry, catalog))
        except StrangedualError as exc:
            checks.append(_result(number, [str(exc)]))
    return EntryReport(entry.name, tuple(checks))


def verify_all(catalog: Catalog) -> CatalogReport:
    """Verify every entry; vacuously passing (with a warning) when empty."""
    warnings = ()
    if not catalog.entries:
        warnings = ("catalog is empty; nothing verified",)
    reports = tuple(verify_entry(entry, catalog) for entry in catalog.entries)
    return CatalogReport(reports, warnings)
