import copy
import json
import pickle

import pytest

from strangedual.catalog import (
    CatalogError,
    SUBSTITUTION_CASES,
    canonical_name,
    default_catalog_path,
    load_catalog,
    report_from_json,
    verify_all,
    verify_entry,
)
from strangedual.invertible import bh_transpose
from strangedual.polyring import parse_poly


def _raw_catalog():
    with open(default_catalog_path(), "r", encoding="utf-8") as handle:
        return json.load(handle)


def _write(tmp_path, data):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def test_shipped_catalog_loads(catalog):
    assert catalog.names() == ("J'", "K'", "Kb", "L", "Ls", "M", "Ms", "I")
    assert len(catalog.entries) == 8


def test_catalog_replace_and_make_round_trip(catalog):
    # The record has one field; nothing overrides the tuple's length.
    smaller = catalog._replace(entries=catalog.entries[:2])
    assert smaller.names() == ("J'", "K'")
    assert smaller._replace(entries=catalog.entries) == catalog
    assert type(catalog)._make([catalog.entries]) == catalog


def test_duality_involution_structure(catalog):
    pairs = {(e.name, e.dual_name) for e in catalog.entries}
    self_dual = {name for name, dual in pairs if name == dual}
    assert self_dual == {"J'", "K'", "Ls", "M", "Ms", "I"}
    assert ("Kb", "L") in pairs and ("L", "Kb") in pairs
    for entry in catalog.entries:
        assert catalog.dual_of(catalog.dual_of(entry)) is entry


def test_gabrielov_sum_and_multiplicities(catalog):
    for entry in catalog.entries:
        assert sum(entry.gabrielov_flat()) == 12
        assert 3 + sum(entry.dynkin.multiplicity_values()) == 13


def test_entries_without_k0_row(catalog):
    missing = {e.name for e in catalog.entries if e.k0_equations is None}
    assert missing == {"Kb", "Ls", "Ms"}
    for entry in catalog.entries:
        report = verify_entry(entry, catalog)
        quasi = next(c for c in report.checks if c.number == 6)
        assert quasi.passed
        if entry.k0_equations is None:
            assert any("not recorded" in d for d in quasi.details)


def test_canonical_name_aliases():
    assert canonical_name("kb") == "Kb"
    assert canonical_name("K♭") == "Kb"
    assert canonical_name("L♯") == "Ls"
    assert canonical_name("msharp") == "Ms"
    assert canonical_name("J'") == "J'"


def test_substitution_case_table():
    assert set(SUBSTITUTION_CASES) == {"a", "b", "c", "d"}
    assert SUBSTITUTION_CASES["a"]["kernel"] == (1, 1, 0, -2)
    assert SUBSTITUTION_CASES["c"]["kernel"] == (1, 1, -1, -1)


def test_verify_all_green(catalog):
    report = verify_all(catalog)
    assert report.total == 80
    assert report.passed == 80
    assert report.ok
    assert report.to_text().endswith("80/80 checks passed")


def test_polynomials_and_catalogs_copy_and_pickle(catalog):
    # Each immutable value type rebuilds from its own data, so copies equal
    # the original and a deep-copied catalog verifies like the shipped one.
    poly = parse_poly("x + 1/2*y")
    for copied in (copy.copy(poly), copy.deepcopy(poly), pickle.loads(pickle.dumps(poly))):
        assert copied == poly and hash(copied) == hash(poly)
        assert str(copied) == "x + 1/2*y"
    clone = copy.deepcopy(catalog)
    assert clone == catalog and pickle.loads(pickle.dumps(catalog)) == catalog
    report = verify_all(clone)
    assert report.passed == 80 and report.to_text() == verify_all(catalog).to_text()


def test_report_json_roundtrip(catalog):
    report = verify_all(catalog)
    data = json.loads(json.dumps(report.to_json()))
    rebuilt = report_from_json(data)
    assert rebuilt == report


def test_verify_entry_jprime_zeta_witness(catalog):
    entry = catalog.get("J'")
    assert str(entry.zeta_frame) == "2^2*8*10 / 1^2*4*5"
    report = verify_entry(entry, catalog)
    assert all(c.passed for c in report.checks)


def test_kflat_strange_duality_values(catalog):
    kflat = catalog.get("Kb")
    dual = catalog.dual_of(kflat)
    assert kflat.gabrielov == ((2, 2), (3, 5))
    assert dual.dolgachev == ((2, 2), (3, 5))


def test_i_series_dolgachev(catalog):
    assert catalog.get("I").dolgachev == ((3, 3), (3, 3))


def test_transpose_closure(catalog):
    for entry in catalog.entries:
        dual = catalog.dual_of(entry)
        assert (
            bh_transpose(entry.exponent_matrix()).row_multiset()
            == dual.exponent_matrix().row_multiset()
        )


def test_parent_data_reduction(catalog):
    # Every stored h equals x*c + a*b of the stored triple.
    for entry in catalog.entries:
        t = entry.matfac
        assert parse_poly("x") * t.c + t.a * t.b == entry.parent.h


# -- fault injection ----------------------------------------------------------


def test_perturbed_gabrielov_fails_zeta_and_duality(tmp_path, catalog):
    data = _raw_catalog()
    kflat = next(e for e in data["entries"] if e["name"] == "Kb")
    kflat["gabrielov"] = [[2, 2], [2, 6]]  # sum preserved, values wrong
    kflat["dynkin"]["gamma"] = [[2, 0], [2, 0], [2, 0], [5, 1]]
    perturbed = load_catalog(_write(tmp_path, data))
    report = verify_all(perturbed)
    failing = {
        (entry.name, check.number)
        for entry in report.entries
        for check in entry.checks
        if not check.passed
    }
    assert failing == {("Kb", 9), ("Kb", 10)}


def test_perturbed_dolgachev_fails_entry_and_dual(tmp_path):
    data = _raw_catalog()
    kflat = next(e for e in data["entries"] if e["name"] == "Kb")
    kflat["dolgachev"] = [[2, 3], [3, 4]]
    perturbed = load_catalog(_write(tmp_path, data))
    report = verify_all(perturbed)
    failing = {
        (entry.name, check.number)
        for entry in report.entries
        for check in entry.checks
        if not check.passed
    }
    # The entry's own orbit check fails; its dual L consumes the wrong
    # Dolgachev numbers in the zeta identity and the duality statement.
    assert failing == {("Kb", 8), ("L", 9), ("L", 10)}


def test_broken_duality_rejected_at_load(tmp_path):
    data = _raw_catalog()
    entry = next(e for e in data["entries"] if e["name"] == "Kb")
    entry["dual"] = "Kb"
    with pytest.raises(CatalogError, match="involution"):
        load_catalog(_write(tmp_path, data))


def test_missing_multiplicity_rejected_at_load(tmp_path):
    data = _raw_catalog()
    entry = next(e for e in data["entries"] if e["name"] == "M")
    del entry["dynkin"]["M5"]
    with pytest.raises(CatalogError, match="M5"):
        load_catalog(_write(tmp_path, data))


def test_gabrielov_sum_rejected_at_load(tmp_path):
    data = _raw_catalog()
    entry = next(e for e in data["entries"] if e["name"] == "I")
    entry["gabrielov"] = [[3, 3], [3, 4]]
    entry["dynkin"]["gamma"] = [[3, 0], [3, 0], [3, 0], [4, 0]]
    with pytest.raises(CatalogError, match="sum to 13"):
        load_catalog(_write(tmp_path, data))


def test_empty_catalog_vacuous_pass(tmp_path):
    empty = load_catalog(_write(tmp_path, {"schema": 1, "entries": []}))
    report = verify_all(empty)
    assert report.ok
    assert report.total == 0
    assert report.warnings
    assert "empty" in report.to_text()


def test_bad_schema_rejected(tmp_path):
    with pytest.raises(CatalogError, match="schema"):
        load_catalog(_write(tmp_path, {"schema": 2, "entries": []}))


def test_kernel_case_mismatch_rejected(tmp_path):
    data = _raw_catalog()
    entry = next(e for e in data["entries"] if e["name"] == "L")
    entry["kernel"] = [1, 1, 0, -2]
    with pytest.raises(CatalogError, match="kernel"):
        load_catalog(_write(tmp_path, data))


def test_unknown_entry_lookup(catalog):
    with pytest.raises(CatalogError):
        catalog.get("Zq")


def test_non_string_polynomial_field_rejected(tmp_path):
    data = _raw_catalog()
    entry = next(e for e in data["entries"] if e["name"] == "L")
    entry["relation"] = 5
    with pytest.raises(CatalogError, match="field 'relation': expected a string, got int"):
        load_catalog(_write(tmp_path, data))


@pytest.mark.parametrize(
    "target", ["dolgachev_pair", "split_newton", "frame_to_polynomial", "mf.verify_factorization"]
)
def test_programming_error_in_check_propagates(catalog, monkeypatch, target):
    # Only domain errors become FAIL lines; a bug must surface as a traceback.
    def broken(*args):
        raise TypeError("injected")

    monkeypatch.setattr(f"strangedual.catalog.{target}", broken)
    with pytest.raises(TypeError, match="injected"):
        verify_entry(catalog.get("Kb"), catalog)


def test_kernel_failure_line(catalog):
    # An integer kernel gives integer images, printed as the Fraction
    # images were.
    entry = catalog.get("J'")
    result = verify_entry(entry._replace(kernel=(1, 1, 0, -1)), catalog)
    (check,) = [c for c in result.checks if c.number == 4]
    assert check.details == ("E * (1, 1, 0, -1) = ('4', '2', '0', '3') != 0",)


@pytest.mark.parametrize("schema", [True, 1.0, "1"], ids=["true", "float", "string"])
def test_schema_must_be_the_integer_one(tmp_path, schema):
    # JSON true and 1.0 compare equal to 1 in Python; neither names schema 1.
    with pytest.raises(CatalogError) as exc:
        load_catalog(_write(tmp_path, {"schema": schema, "entries": []}))
    assert str(exc.value) == f"unsupported schema {schema!r}"
