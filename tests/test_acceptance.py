"""End-to-end acceptance run at full grid sizes.

Every check here is exact integer equality; there are no tolerances to
tune.  Each test prints one verdict line to the real stdout so a tee'd
pytest log shows the whole checklist even with capture on.
"""

import hashlib

import pytest

from lapspec import enumeration
from lapspec.enumeration import EnumerationTask, enumerate_graphs
from lapspec.graph6 import graph6_decode, graph6_encode
from lapspec.recurrences import theta_value_at4
from lapspec.verify import (verify_census, verify_cospectral_structure,
                            verify_deletion_suite, verify_determination,
                            verify_dumbbell_table, verify_family_values,
                            verify_generating_identity, verify_invariants_suite,
                            verify_recurrences, verify_special_values,
                            verify_theta_table, verify_within_family)

DS_RANGE = range(6, 11)
# SHA-256 of b"\n".join(sorted forms) of the connected (12, 13) pool, equal
# on the structural and the tree-first edge route (a route since deleted).
POOL_DIGEST_12 = "9155e60374ae82ef77272694929f4542620a205ceb0717091c3a17d9f794c2fa"

_capture = None


@pytest.fixture(autouse=True)
def _uncaptured_verdicts(capsys):
    # capsys.disabled() suspends pytest's fd-level capture, which swallows
    # even sys.__stdout__; without this the verdict lines never reach a
    # tee'd log.
    global _capture
    _capture = capsys
    yield
    _capture = None


def _verdict(ok: bool, label: str) -> None:
    line = ("PASS " if ok else "FAIL ") + label
    if _capture is None:
        print(line, flush=True)
        return
    with _capture.disabled():
        # The leading newline closes pytest's half-written progress line.
        print("\n" + line, flush=True)


def _run(report, label: str):
    _verdict(report.passed, label)
    assert report.passed, (label, report.counterexamples[:5])
    return report


def test_01_recurrences_match_matrix_routes():
    _run(verify_recurrences(path_n_max=40, p_max=8, k_max=5, r_max=8),
         "[ 1] recurrence charpolys equal matrix charpolys "
         "(paths/interior n<=40; dumbbells p,q in [3,8], k in [0,5]; thetas r<=8)")


def test_02_special_point_closed_forms():
    _run(verify_special_values(n_max=200),
         "[ 2] closed forms at x=4 and x=2 hold exactly for n<=200")


def test_03_generating_identity():
    _run(verify_generating_identity(r_max=50),
         "[ 3] interior-poly generating identity holds exactly for r<=50")


def test_04_term_table_audits():
    dumbbell = verify_dumbbell_table(p_max=8, k_max=5)
    theta = verify_theta_table(r_max=8)
    ok = (dumbbell.passed and theta.passed
          and dumbbell.counts["table_mismatched_tuples"] == 0
          and theta.counts["table_mismatched_tuples"] == theta.counts["tuples"])
    _verdict(ok, "[ 4] y-side identity routes agree on every grid tuple; "
                 "dumbbell table exact, theta table's one bad printed "
                 "coefficient reported on every tuple")
    assert dumbbell.passed and theta.passed
    assert dumbbell.counts["table_mismatched_tuples"] == 0
    assert theta.counts["table_mismatched_tuples"] == theta.counts["tuples"]
    for item in theta.details["tuples"]:
        assert len(item["diffs"]) == 1
        assert item["diffs"][0]["table"] - item["diffs"][0]["lhs"] == 2


def test_05_family_values_at_four():
    report = verify_family_values(p_max=8, k_max=5, r_max=8)
    ok = report.passed and theta_value_at4(1, 1, 1) == -16
    _verdict(ok, "[ 5] family closed forms at x=4 match direct evaluation; "
                 "spot value -16 on the 5-vertex theta")
    assert ok, report.counterexamples[:5]


def test_06_deletion_expansion():
    _run(verify_deletion_suite(family_n_max=12, samples=100, sample_n_max=9),
         "[ 6] vertex deletion expansion exact at every vertex "
         "(family n<=12 plus 100 seeded random connected graphs n<=9)")


def test_07_invariant_extraction():
    _run(verify_invariants_suite(samples=200, n_max=10),
         "[ 7] charpoly-derived invariants equal direct counts on "
         "200 seeded random connected graphs n<=10")


def test_08_family_spectra_distinct():
    _run(verify_within_family(n_max=20),
         "[ 8] all family members n<=20 have pairwise distinct charpolys")


def test_09_spectral_determination_6_to_10():
    reports = [verify_determination(n) for n in DS_RANGE]
    ok = all(r.passed for r in reports)
    members = sum(r.counts["members"] for r in reports)
    pool = sum(r.counts["pool"] for r in reports)
    _verdict(ok, f"[ 9] no member has a non-isomorphic cospectral mate among "
                 f"connected (n,n+1) graphs, certified 6<=n<=10 "
                 f"({members} members vs {pool} pool graphs)")
    for r in reports:
        assert r.passed, (r.parameters, r.counterexamples[:5])


def test_10_profile_forcing_6_to_10():
    reports = [verify_cospectral_structure(n) for n in DS_RANGE]
    ok = all(r.passed for r in reports)
    _verdict(ok, "[10] degree profile (3,3,2,...,2) forces family membership "
                 "on enumerated graphs, and the constraint solver pins that "
                 "profile for every member, 6<=n<=10")
    for r in reports:
        assert r.passed, (r.parameters, r.counterexamples[:5])


def test_11_codec_and_census():
    census = verify_census(n_max=7)
    round_trips = census.counts["round_trips"]
    codec_ok = census.passed
    for n in DS_RANGE:
        for g in enumerate_graphs(EnumerationTask(n, n + 1, connected=True)):
            round_trips += 1
            if graph6_decode(graph6_encode(g)) != g:
                codec_ok = False
    ok = codec_ok and census.details["totals"]["7"] == 1044
    _verdict(ok, f"[11] graph6 codec round-trips all {round_trips} enumerated "
                 f"graphs bit-exactly; census totals n<=7 agree across two "
                 f"independent enumeration routes")
    assert census.passed, census.counterexamples[:5]
    assert census.details["totals"] == {"0": 1, "1": 1, "2": 2, "3": 4,
                                        "4": 11, "5": 34, "6": 156, "7": 1044}
    assert codec_ok


def test_12_determination_and_profile_forcing_at_11():
    determination = verify_determination(11, cap=11)
    structure = verify_cospectral_structure(11, cap=11)
    ok = (determination.passed and structure.passed
          and determination.counts["members"] == 23
          and determination.counts["pool"] == 8833
          and structure.counts["cospectral_hits"] == 23)
    _verdict(ok, "[12] spectral determination and profile forcing certified "
                 "at n=11 (23 members vs 8833 pool graphs, 23 cospectral hits)")
    assert determination.passed, determination.counterexamples[:5]
    assert structure.passed, structure.counterexamples[:5]
    assert determination.counts["members"] == 23
    assert determination.counts["pool"] == structure.counts["pool"] == 8833
    assert structure.counts["cospectral_hits"] == 23


def test_13_determination_and_profile_forcing_at_12():
    determination = verify_determination(12, cap=12)
    structure = verify_cospectral_structure(12, cap=12)
    forms = enumeration._memo[EnumerationTask(12, 13, connected=True)]
    digest = hashlib.sha256(b"\n".join(forms)).hexdigest()
    ok = (determination.passed and structure.passed
          and determination.counts["members"] == 29
          and determination.counts["pool"] == 28908
          and structure.counts["cospectral_hits"] == 29
          and digest == POOL_DIGEST_12)
    _verdict(ok, "[13] spectral determination and profile forcing certified "
                 "at n=12 (29 members vs 28908 pool graphs, 29 cospectral hits)")
    assert determination.passed, determination.counterexamples[:5]
    assert structure.passed, structure.counterexamples[:5]
    assert determination.counts["members"] == 29
    assert determination.counts["pool"] == structure.counts["pool"] == 28908
    assert structure.counts["cospectral_hits"] == 29
    assert digest == POOL_DIGEST_12
