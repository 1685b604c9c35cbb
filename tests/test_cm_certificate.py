"""The Cohen-Macaulay certificate against the scans it replaces, and the
theorems it implies for the numbers.

When q_1..q_d is a regular sequence, ``evaluate_conditions`` reports c0, c1
and c2, and ``evaluate_structural`` its colon clause, as holding with no
witness, without computing a colon.  Here the full scans run on every job
that has the certificate, and must say the same.  A CM ring also fixes the
reduction's lengths and bounds e_1 from below, which every verified job with
the certificate must show.  Those numbers come from closed forms where the
certificate holds (``filtration.closed_form``), so every job also runs with
the closed forms giving nothing, every entry a colength, and the two reports
must be byte-identical.
"""
import pytest
from hypothesis import given, settings, strategies as st

from filtra import report
from filtra.filtration import (ADIC, Filtration, check_colon_in_i1,
                               check_d_sequence, check_usd_bounded,
                               reduction_system)
from filtra.hilbert import binom
from filtra.ideals import LocalRing

from conftest import CORPUS_DIR, canonical_key, corpus_and_digest_configs

NOT_CM = {"depth_zero", "depth_zero_equality", "two_planes"}


def colon_clause(red, I2) -> tuple:
    """The structural colon clause by its definition: each
    (q_j : j != i) : q_i lies inside I_2 + Q."""
    i2q = I2 + red.handle
    for i in range(red.count):
        bad = i2q.missing_generator(red.omit_handle(i).colon(red.generators[i]))
        if bad is not None:
            return False, {"i": i + 1, "generator": str(bad)}
    return True, None


def full_scans(ring, red, filt, power_bound) -> dict:
    return {
        "c0": check_d_sequence(ring, red.generators),
        "c1": check_usd_bounded(ring, red.generators, power_bound),
        "c2": check_colon_in_i1(ring, red, filt.i1),
        "colon_clause": colon_clause(red, filt.get_ideal(2)),
    }


@pytest.fixture(scope="module")
def runs(without_closed_forms):
    """Every corpus job and every job of ``golden/report_digests.json``, run
    once: (report, the boundary data its conditions read, power_bound).
    Its run with no closed forms must give the same bytes."""
    configs = list({canonical_key(c): c for c in corpus_and_digest_configs()}.values())
    conditions = report.evaluate_conditions
    out = []
    with pytest.MonkeyPatch.context() as mp:
        seen = []

        def captured(data, power_bound):
            seen.append((data, power_bound))
            return conditions(data, power_bound)

        mp.setattr(report, "evaluate_conditions", captured)
        for cfg in configs:
            seen.clear()
            got = report.run_job(cfg)
            assert len(seen) == 1, got["name"]
            full = without_closed_forms[canonical_key(cfg)][0]
            assert report.to_json(full) == report.to_json(got), got["name"]
            out.append((got, *seen[0]))
    return out


def test_reports_agree_with_the_full_scans(runs):
    """On every job, the report's c0, c1, c2 and colon clause are what the
    full scans return, and on a job with the certificate each holds with no
    witness.  Only the three non-CM corpus jobs lack the certificate, and
    two of them fail the colon clause."""
    certified, clause_fails = set(), set()
    for got, data, power_bound in runs:
        name, conds = got["name"], got["conditions"]
        clause = got["structural"]["clause_colon"]
        reported = {key: (conds[cond]["holds"], conds[cond]["witness"])
                    for key, cond in (("c0", "c0_d_sequence"), ("c1", "c1_usd_bounded"),
                                      ("c2", "c2_colon_in_i1"))}
        reported["colon_clause"] = (clause["holds"], clause["witness"])
        assert reported == full_scans(data.ring, data.red, data.filt, power_bound), name
        assert got["ring"]["cm_certificate"] is data.cohen_macaulay, name
        if data.cohen_macaulay:
            certified.add(name)
            assert set(reported.values()) == {(True, None)}, name
        elif not clause["holds"]:
            clause_fails.add(name)
    corpus = {p.stem for p in CORPUS_DIR.glob("*.json")}
    assert corpus - certified == NOT_CM
    assert {"depth_zero", "two_planes"} <= clause_fails


def test_cm_theorem_invariants(runs):
    """On a verified job with the certificate, Q is generated by a regular
    sequence, so l(A/Q^n) = l(A/Q) C(n+d-1, d) for every n and e_i(Q) = 0 for
    i >= 1; Q is a reduction, so e_0(I) = e_0(Q) > 0; and Northcott's
    inequality e_1(I) >= e_0(I) - l(A/I_1) holds."""
    checked = 0
    for got, _, _ in runs:
        if got["verdict"] != "verified" or not got["ring"]["cm_certificate"]:
            continue
        checked += 1
        name, nums, d = got["name"], got["numbers"], got["ring"]["dimension"]
        h_red = nums["lengths_reduction"]
        assert h_red == [h_red[1] * binom(n + d - 1, d) for n in range(len(h_red))], name
        e_filt, e_red = nums["e_filtration"], nums["e_reduction"]
        assert e_red == [h_red[1]] + [0] * d, name
        assert e_filt[0] == e_red[0] > 0, name
        assert e_filt[1] >= e_filt[0] - nums["stage_one_colength"], name
    assert checked == 86


def assert_scans_hold(ring, stage_one, red_gens, power_bound=2):
    red = reduction_system(ring, red_gens)
    assert ring.is_regular_sequence(red.generators)
    filt = Filtration(ring, ADIC, {1: stage_one})
    scans = full_scans(ring, red, filt, power_bound)
    assert scans == dict.fromkeys(scans, (True, None))


@settings(max_examples=8, deadline=None)
@given(st.integers(2, 4), st.integers(3, 6))
def test_plane_curves_with_a_parameter_pass_every_scan(a, b):
    """y^a - x^b with Q = (x) and I_1 = m."""
    ring = LocalRing(("x", "y"), [f"y^{a} - x^{b}"])
    assert_scans_hold(ring, ["x", "y"], ["x"])


@settings(max_examples=8, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4),
       st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=2))
def test_monomial_parameter_pairs_pass_every_scan(a, b, extras):
    """Q = (x^a, y^b) inside I_1 = Q plus a few monomials."""
    ring = LocalRing(("x", "y"))
    stage_one = [f"x^{a}", f"y^{b}"] + [f"x^{i}*y^{j}" for i, j in extras if i + j]
    assert_scans_hold(ring, stage_one, [f"x^{a}", f"y^{b}"])


@settings(max_examples=8, deadline=None)
@given(st.sampled_from((1, -1, 2, 3)), st.integers(2, 3), st.integers(2, 4))
def test_non_monomial_regular_pairs_pass_every_scan(c, k, b):
    """(x + c y^k, y^b) in k[x, y], with I_1 = m, as (x + y^2, y^3)."""
    ring = LocalRing(("x", "y"))
    assert_scans_hold(ring, ["x", "y"], [f"x + ({c})*y^{k}", f"y^{b}"])
