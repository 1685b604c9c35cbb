"""Facts deduced from how the ideals were built, against the work they skip.

A handle built by sum, product, meet or colon from handles whose global
quotient is supported at the origin inherits that certificate, and its
colength skips the nilpotency loop.  For powers of I_1 the chain
I^{n+1} in I^n holds by construction, and once I^{n+1} = Q I^n, also
I^{n+2} = Q I^{n+1}.  Here every interned handle's colength is recomputed by
the full loop on a fresh handle, and the full chain and tail scans run on
every adic job.
"""
import json

import pytest
from hypothesis import given, settings, strategies as st

from filtra import report
from filtra.config import load_config, parse_config
from filtra.filtration import (ADIC, EXPLICIT, Filtration, reduction_system,
                               verify_admissible)
from filtra.ideals import IdealHandle, LocalRing

from conftest import CORPUS_DIR, GOLDEN_DIR


def run_captured(cfg):
    """Run one job; return its report, its ring and the (filtration,
    reduction) that run_job certified, or (None, None) if it stopped before."""
    rings, certified = [], []
    make_ring, verify = report.LocalRing, report.verify_admissible

    def ring(*args, **kwargs):
        rings.append(make_ring(*args, **kwargs))
        return rings[-1]

    def captured(filt, red, horizon):
        certified.append((filt, red))
        return verify(filt, red, horizon)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(report, "LocalRing", ring)
        mp.setattr(report, "verify_admissible", captured)
        got = report.run_job(cfg)
    assert len(rings) == 1, got["name"]
    return got, rings[0], *(certified[-1] if certified else (None, None))


def full_scans(filt, red, horizon) -> tuple:
    """The chain scan's failing stages and every tail flag, by equality."""
    stage = filt.get_ideal
    chain = [n for n in range(1, horizon)
             if stage(n).missing_generator(stage(n + 1)) is not None]
    flags = [stage(n + 1).equals_local(red.handle * stage(n)) for n in range(horizon - 1)]
    return chain, flags


def check_adic_scans(got, filt, red) -> int:
    """Assert the full scans agree with the report; return its r."""
    horizon, name = got["filtration"]["horizon"], got["name"]
    chain, flags = full_scans(filt, red, horizon)
    assert chain == [], name
    assert flags == got["admissibility"]["stage_equalities"], name
    return got["admissibility"]["reduction_postulation"]


def check_certificates(ring) -> int:
    """Assert every interned handle's colength equals the full loop's on a
    fresh handle; return how many non-monomial handles carry the flag."""
    flagged = sum(h._at_origin and h.monomials is None for h in ring._handles.values())
    for gens, handle in list(ring._handles.items()):
        assert IdealHandle(ring, gens).colength() == handle.colength(), handle
    return flagged


@pytest.fixture(scope="module")
def runs():
    """Every corpus job and every job of ``golden/report_digests.json``:
    (report, adic scans' r or None, flagged non-monomial handles)."""
    configs = [load_config(p) for p in sorted(CORPUS_DIR.glob("*.json"))]
    configs += [parse_config(e["config"]) for e in
                json.loads((GOLDEN_DIR / "report_digests.json").read_text())]
    out = []
    for cfg in configs:
        got, ring, filt, red = run_captured(cfg)
        r = None
        if filt is not None and filt.kind == ADIC:
            r = check_adic_scans(got, filt, red)
        out.append((got, r, check_certificates(ring)))
    return out


def test_inherited_certificates_match_the_full_loop(runs):
    """The comparison ran in the fixture, after the job and its scans; here,
    that it met the 3 355 certified non-monomial handles of those jobs."""
    assert sum(flagged for _, _, flagged in runs) == 3355


def test_adic_chain_and_tail_match_the_full_scans(runs):
    """The scans ran in the fixture; here, that they met all 95 adic jobs
    that reached the tail, 89 of them with r >= 1."""
    rs = [r for _, r, _ in runs if r is not None]
    assert (len(rs), sum(r >= 1 for r in rs)) == (95, 89)


def test_a_product_with_a_second_point_keeps_no_certificate():
    """(x^2 - x, y^2) has a second point at x = 1, so a product with m or a
    meet with m^2 does not inherit their certificate, while a sum does."""
    ring = LocalRing(("x", "y"))
    m = ring.maximal_ideal()
    bad = ring.ideal(["x^2 - x", "y^2"])
    assert m.colength() == 1 and bad.colength() is None
    assert (bad * m).colength() is None
    assert bad.intersect(m.power(2)).colength() is None
    assert (bad + m).colength() == 1


def test_an_explicit_tower_scans_its_whole_tail():
    """I_1 = Q = m, I_2 = m^2 and I_3 = m^3 + (x^2): I_2 = Q I_1 but
    I_3 != Q I_2, so the tail past a first equality is deduced for powers
    only."""
    ring = LocalRing(("x", "y"))
    filt = Filtration(ring, EXPLICIT, {1: ["x", "y"], 2: ["x^2", "x*y", "y^2"],
                                       3: ["x^2", "x*y^2", "y^3"]})
    cert = verify_admissible(filt, reduction_system(ring, ["x", "y"]), 5)
    assert cert.stage_equalities == (True, True, False, True)
    assert cert.reduction_postulation == 3


def assert_job_deductions(obj) -> int:
    got, ring, filt, red = run_captured(parse_config(obj))
    assert got["verdict"] == "verified", got["name"]
    r = check_adic_scans(got, filt, red)
    check_certificates(ring)
    return r


@settings(max_examples=10, deadline=None)
@given(st.integers(2, 4), st.integers(1, 4), st.sampled_from((None, 1, 2, 5)),
       st.sampled_from(("q", "fp:32003")))
def test_drawn_curves(a, step, c, field):
    """y^a - x^b (+ c x^(b-1) y) with I_1 = m and Q = (x), where r = a - 1."""
    b = a + step
    f = f"y^{a} - x^{b}" + ("" if c is None else f" + {c}*x^{b - 1}*y")
    r = assert_job_deductions({
        "name": "curve", "field": field,
        "ring": {"variables": ["x", "y"], "relations": [f]},
        "filtration": {"kind": "adic", "stages": {"1": ["x", "y"]}},
        "reduction": {"generators": ["x"]}})
    assert r >= 1


@st.composite
def monomial_stage_one(draw):
    """(x^a, y^a) and at least one monomial of degree >= a outside it."""
    a = draw(st.integers(2, 4))
    cands = [(i, j) for i in range(a) for j in range(a) if i + j >= a]
    extras = draw(st.lists(st.sampled_from(cands), min_size=1, max_size=3, unique=True))
    return a, [f"x^{i}*y^{j}" for i, j in extras]


@settings(max_examples=10, deadline=None)
@given(monomial_stage_one())
def test_drawn_monomial_ideals(case):
    """I_1 = (x^a, y^a, extras) with Q = (x^a, y^a); an extra outside Q
    makes I_1 != Q, so r >= 1."""
    a, extras = case
    r = assert_job_deductions({
        "name": "monomial",
        "ring": {"variables": ["x", "y"]},
        "filtration": {"kind": "adic", "stages": {"1": [f"x^{a}", f"y^{a}"] + extras}},
        "reduction": {"generators": [f"x^{a}", f"y^{a}"]}})
    assert r >= 1
