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

# SHA-256 of each report's timing-free JSON (``without_timing().to_json()``),
# keyed by suite name and, for the pool suites, n.  The reports are
# deterministic, so a change of any byte shows here; a change that alters
# report bytes on purpose updates these pins and names them.
REPORT_DIGESTS = {
    "recurrences":
        "4b14c2ec353ea03396ab7e50d67d3cdef9bd2ad533fe7fe34d78ae57dad06a66",
    "special-values":
        "4ea857ec21598977c7fda5421087830326ff170d6992ed85c0d8b9cce39f5311",
    "generating-identity":
        "b39d0cb6f50abeb09d8367754db8471cd6f5c23d3bc596dcdf17650cf78f210c",
    "dumbbell-table":
        "cd880329fd3ad15c5a1d39aa86404911d4c54d225651c7d906aee5935020902a",
    "theta-table":
        "81ce625367fc4de1d25436548ac9765c3bcf288af0d2cb026fa22ae1460c4ad7",
    "family-values":
        "3786dcb9e3433fffcfeeae942150603ee7a679b7dc4a6e92f7bb085e684909df",
    "deletion-formula":
        "55d6bd64d3c2e16a107bc4fe92cd34a95b98881252e39f6e63d672db5357357b",
    "invariants":
        "f6505c67aeecdfe9418afa98c07d289208577099cda51093d508de3700969f7a",
    "within-family":
        "401204ce29768c65a1968bf1d7fb4c1a161a2c06b7c0f49dae3c112dd3a4e60b",
    "determination n=6":
        "c44dd76d15b6962ee972488ec504f549145d1890f2f89a70436f743efe3bda0b",
    "determination n=7":
        "5a541d9e4c116e5c81109f874c010f3957b7bd8a3b409d19ee79938a0729acba",
    "determination n=8":
        "add629d15673e8c7a55f75eb00e78bcce774a82aab96b0fa0bd7c919f6f1e80d",
    "determination n=9":
        "ee302bae5a5e05f7d6055457a537d499d349307f512c109ebf71a068f08fb092",
    "determination n=10":
        "8a2211709078df2a14196b63addb55baf7375c9a7123bb832e997d8dbe09748e",
    "cospectral-structure n=6":
        "0a7c065505c89711f01567bf8376102d0762bf8d215ffeb3917a6d32821d06b1",
    "cospectral-structure n=7":
        "9c89d4cd04fd0c2ae0cae4e62f3805a67934ee8275d5070392562383cea1e6be",
    "cospectral-structure n=8":
        "74003b0723e335fc9e0abea264d2e8f9472776cf6c5d8a21a03f9c39afa9e54e",
    "cospectral-structure n=9":
        "6504184bcd912878502b3a870f8f0d85be2cedd95987ce6de3573c9208192d99",
    "cospectral-structure n=10":
        "c1ba67577dd84b7cf315912381ac918cf58e77aeaa54f2084511df6909492f1f",
    "census":
        "c36e6b020195b56afa2af13046fd33a945d0ddbbe8f2f8b28a032ba53a7721a3",
    "determination n=11":
        "5892f5032d134beebcce1a66212a18dcbc44e165a096953675f2503fbc7ec1fd",
    "cospectral-structure n=11":
        "bfb60fe02d8d66bfde17a4d905023159962fa99ede53ba76e61f9b9a782a6821",
    "determination n=12":
        "04106ae1275bef8253dc154c5cab8bdd9b4714096820313c3deffdb5176001f4",
    "cospectral-structure n=12":
        "a016b545d67502194c22042c838f5146e5eb76804ac2a7dbcb373daec22ea1bb",
}

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


def _assert_pinned(*reports) -> None:
    for report in reports:
        key = report.suite
        if "n" in report.parameters:
            key += f" n={report.parameters['n']}"
        digest = hashlib.sha256(report.without_timing().to_json().encode()).hexdigest()
        assert digest == REPORT_DIGESTS[key], (key, digest)


def _run(report, label: str):
    _verdict(report.passed, label)
    assert report.passed, (label, report.counterexamples[:5])
    _assert_pinned(report)
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
    _assert_pinned(dumbbell, theta)


def test_05_family_values_at_four():
    report = verify_family_values(p_max=8, k_max=5, r_max=8)
    ok = report.passed and theta_value_at4(1, 1, 1) == -16
    _verdict(ok, "[ 5] family closed forms at x=4 match direct evaluation; "
                 "spot value -16 on the 5-vertex theta")
    assert ok, report.counterexamples[:5]
    _assert_pinned(report)


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
    _assert_pinned(*reports)


def test_10_profile_forcing_6_to_10():
    reports = [verify_cospectral_structure(n) for n in DS_RANGE]
    ok = all(r.passed for r in reports)
    _verdict(ok, "[10] degree profile (3,3,2,...,2) forces family membership "
                 "on enumerated graphs, and the constraint solver pins that "
                 "profile for every member, 6<=n<=10")
    for r in reports:
        assert r.passed, (r.parameters, r.counterexamples[:5])
    _assert_pinned(*reports)


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
    _assert_pinned(census)


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
    _assert_pinned(determination, structure)


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
    _assert_pinned(determination, structure)
