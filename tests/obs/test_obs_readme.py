"""The README's invariant catalog cannot drift from the registry."""

from __future__ import annotations

from pathlib import Path

from repro.obs import INVARIANTS

README = Path(__file__).resolve().parents[2] / "README.md"


def catalog_rows() -> dict:
    """``rule -> (description, kinds, test)`` from the README table."""
    lines = README.read_text().splitlines()
    start = lines.index(
        "| Rule | Description | Event kinds folded | Enforcement | Test |"
    )
    rows = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        rule, description, kinds, _, test = (
            cell.strip() for cell in line.strip("|").split("|")
        )
        rows[rule.strip("`")] = (
            description,
            tuple(kind.strip().strip("`") for kind in kinds.split(",")),
            test.strip("`"),
        )
    return rows


def test_catalog_matches_the_registry():
    rows = catalog_rows()
    assert sorted(rows) == sorted(INVARIANTS.names())
    for name, (description, kinds, _) in rows.items():
        invariant = INVARIANTS.create(name)
        assert description == invariant.description, name
        assert kinds == invariant.kinds, name


def test_catalog_tests_exist_and_name_their_rule():
    root = README.parent
    for name, (_, _, test) in catalog_rows().items():
        path = root / test
        assert path.is_file(), (name, test)
        assert name in path.read_text(), (name, test)
