"""The canonical reports of the built-in demos are pinned byte for byte.

Two runs of the same code agreeing (test_acceptance) cannot catch a change
that alters a certificate; these digests can.  A change that alters a demo
report on purpose bumps REPORT_SCHEMA and re-records them.
"""

import hashlib

import pytest

from orbipar.cli import demo_scenario
from orbipar.scenario import canonical_report, load_scenario, run_scenario

VERIFY_ONLY = "e50007e69740df6e10eb6434e13fde76924df29bc0824cc04eaeb4a444bd79e9"
DIGESTS = {
    "kummer(2,5,1)": VERIFY_ONLY,
    "kummer(3,7)": VERIFY_ONLY,
    "kummer(4,13)": VERIFY_ONLY,
    "kummer(3,2,2)": VERIFY_ONLY,
    "artin-schreier(2)": VERIFY_ONLY,
    "artin-schreier(3)": VERIFY_ONLY,
    "sign-twist": "6551c902ca1344da7ce4dc24017d2866060cbeecae35fefb9ade2efbbd4139ac",
    "z6-two-points": "a0eb81dc5831a1400885dcf731122a8f25dcd6c47c632289b23d923bd67772eb",
    "tower-2-4": "72e25ae51e8b46de5b00e247b7dd5127de734fdc5ab722f519da2132bcf7d635",
    "multipoint-mixed": "0e0ad4ff3e230c72e4d8d95a1bd6efbf585f5fbd68a75034988ce9eaa4c8f3cf",
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_report_digest(name):
    report = canonical_report(run_scenario(load_scenario(demo_scenario(name))))
    assert hashlib.sha256(report.encode()).hexdigest() == DIGESTS[name]


# rank 2, GF(13), N=8: a Kummer Z/2 datum against its pullback along the tower
# Z/2 -> Z/4, so the report carries g and sigma certificates of rank 2
RANK2_EQUIV = {
    "schema": "orbipar-scenario/1", "field": {"p": 13}, "precision": 8, "seed": 5,
    "extensions": {"K2": {"kind": "kummer", "n": 2}, "K4": {"kind": "kummer", "n": 4}},
    "embeddings": {"tower": {"kind": "kummer_tower", "n": 2, "m": 4},
                   "idK4": {"kind": "identity", "ext": "K4"}},
    "data": {"w": {"kind": "random", "rank": 2, "seed": 2024,
                   "points": [{"label": "p", "ext": "K2", "character_exponent": 1}]}},
    "commands": [{"op": "pullback_refine", "datum": "w", "refinement": {"p": "tower"},
                  "store_as": "w4"},
                 {"op": "equiv", "datum1": "w", "datum2": "w4",
                  "refinement1": {"p": "tower"}, "refinement2": {"p": "idK4"}}],
}
RANK2_EQUIV_DIGEST = "9a34f13f552f9723a692900796c10ccd438528decb246dfb57499209004ecc79"


def test_rank2_equiv_report_digest():
    report = canonical_report(run_scenario(load_scenario(RANK2_EQUIV)))
    assert '"g":' in report and '"sigmas":' in report
    assert hashlib.sha256(report.encode()).hexdigest() == RANK2_EQUIV_DIGEST
