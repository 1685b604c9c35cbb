"""Facts deduced from how the ideals were built, against the work they skip.

For powers of I_1 the chain I^{n+1} in I^n holds by construction, and once
I^{n+1} = Q I^n, also I^{n+2} = Q I^{n+1}.  A sum contains its operands,
so its basis starts from a built one of theirs.  Admissibility puts
Q^n I_2 + W inside I_{n+2} + W, so the collapse clause compares their
colengths.  Under the Cohen-Macaulay certificate the length table fills
entries by closed forms, and ``check_adic_collapse`` scans its containment
from the collapse clause's first failure.  On any ring a sum Q^n + I_k
with I_k inside Q^n past the tail is read as l(A/Q^n), and a product
Q^n I_k past the tail as l(A/I_{n+k}); each sum and product a closed form
fills is checked against its colength.  Here every job runs a second time
with ``closed_form`` giving nothing, so that every entry is a colength,
and both reports must be byte-identical; on both runs every basis started
from another one is rebuilt from the relations and the generators; the
collapse clause is scanned generator by generator; in dimension one the
graded clause is decided at every n by building the meet, and the
containment of ``check_adic_collapse`` is scanned at every n; and the full
chain and tail scans run on every adic job.
"""
import pytest
from hypothesis import given, settings, strategies as st

from filtra import filtration, report
from filtra.config import parse_config
from filtra.filtration import (ADIC, EXPLICIT, Filtration, reduction_system,
                               verify_admissible)
from filtra.groebner import groebner_basis
from filtra.ideals import IdealHandle, LocalRing

from conftest import (canonical_key, corpus_and_digest_configs, graded_by_scan,
                      run_captured)


def collapse_by_scan(data, W):
    """The collapse clause as it is defined: the first n with a generator of
    I_{n+2} outside Q^n I_2 + W, and that generator."""
    filt, Q = data.filt, data.red.handle
    for n in range(1, data.horizon - 1):
        bad = (Q.power(n) * filt.get_ideal(2) + W).missing_generator(filt.get_ideal(n + 2))
        if bad is not None:
            return {"n": n, "generator": str(bad)}
    return None


def containment_by_scan(data):
    """The first n with I_{n+2} not inside Q^n I_1, or None."""
    filt, Q = data.filt, data.red.handle
    return next((n for n in range(1, data.horizon - 1)
                 if not (Q.power(n) * filt.i1).contains_ideal(filt.get_ideal(n + 2))),
                None)


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


def check_seeded_bases(ring, seeded) -> int:
    """Assert every basis built from another handle's basis equals the one
    built from the relations and the generators; return how many handles
    hold one."""
    ids = {id(gb) for gb in seeded}
    count = 0
    for handle in ring._handles.values():
        if handle._gb is not None and id(handle._gb) in ids:
            scratch = groebner_basis(ring.gb_relations.polys + handle.gens, ctx=ring.ctx)
            assert handle._gb.polys == scratch.polys, handle
            count += 1
    return count


def check_clause_scans(got, data, W) -> tuple:
    """Assert the collapse clause, and in dimension one the graded clause and
    the containment of ``check_adic_collapse``, scanned at every n, agree
    with the report; return the collapse witness and, in dimension one, the
    graded one (else False)."""
    name, structural = got["name"], got["structural"]
    collapse = collapse_by_scan(data, W)
    assert structural["clause_collapse"]["witness"] == collapse, name
    if data.d != 1:
        return collapse, False
    graded = graded_by_scan(data, W)
    assert structural["clause_graded"]["witness"] == graded, name
    assert structural["clause_graded"]["holds"] is (graded is None), name
    check = next(c for c in got["checks"] if c["name"] == "adic_collapse")
    if check["status"] != "skipped":
        assert (check.get("details", {}).get("containment_failed_at")
                == containment_by_scan(data)), name
    return collapse, graded


def check_filled(entries) -> tuple:
    """Assert each entry (lengths, n, k, plus, value) that ``closed_form``
    filled equals the colength of ``lengths.ideal(n, k, plus)`` on a fresh
    handle; return how many sums and how many other entries there were."""
    for lengths, n, k, plus, value in entries:
        fresh = IdealHandle(lengths.ring, lengths.ideal(n, k, plus).gens)
        assert fresh.colength() == value, (n, k, plus, lengths.modulo)
    sums = sum(plus for *_, plus, _ in entries)
    return sums, len(entries) - sums


def assert_job_deductions(cfg, full=None) -> tuple:
    """Run the job, and unless ``full`` holds that run already, run it with
    no closed forms; assert the deductions on both runs.  Return (report,
    the adic scans' r or None, handles with a seeded basis on each route as
    (fast, full), the collapse and graded witnesses by the scans, False
    where the job stopped before them or, for graded, where d != 1, and the
    numbers of sums l(A/(Q^n + I_k)), n >= 1, and of products l(A/Q^n I_k),
    n, k >= 1, that closed forms filled)."""
    entries, closed = [], filtration.closed_form

    def recorded(lengths, n, k, plus):
        got = closed(lengths, n, k, plus)
        if got is not None and n >= 1 and (plus or k >= 1):
            entries.append((lengths, n, k, plus, got))
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(filtration, "closed_form", recorded)
        got, ring, seeded, args, filt, red = run_captured(cfg)
    full, full_ring, full_seeded = (full or run_captured(cfg, closed_forms=False))[:3]
    assert report.to_json(full) == report.to_json(got), got["name"]
    rebuilt = (check_seeded_bases(ring, seeded), check_seeded_bases(full_ring, full_seeded))
    r = None
    if filt is not None and filt.kind == ADIC:
        r = check_adic_scans(got, filt, red)
    collapse, graded = False, False
    if args is not None:
        collapse, graded = check_clause_scans(got, *args)
    filled = check_filled(entries)
    return got, r, rebuilt, collapse, graded, filled


@pytest.fixture(scope="module")
def runs(without_closed_forms):
    """``assert_job_deductions`` on every corpus job and every job of
    ``golden/report_digests.json``."""
    return [assert_job_deductions(cfg, without_closed_forms[canonical_key(cfg)])
            for cfg in corpus_and_digest_configs()]


def test_adic_chain_and_tail_match_the_full_scans(runs):
    """The scans ran in the fixture; here, that they met all 95 adic jobs
    that reached the tail, 89 of them with r >= 1."""
    rs = [run[1] for run in runs if run[1] is not None]
    assert (len(rs), sum(r >= 1 for r in rs)) == (95, 89)


def test_seeded_bases_match_bases_from_scratch(runs):
    """The rebuild ran in the fixture, after each job and its run with no
    closed forms; here, that it met the 29 and 790 handles on the two
    routes whose basis started from an operand's.  Before the length table,
    when a colon's basis could also start from its dividend's, the one route
    met 763; before it held l(A/(Q^n + I_k)), the two met 171 and 173;
    before sums past the tail were read as Q^n, 123 and 783; before each
    d-sequence clause was decided as one nonzerodivisor test, whose Hilbert
    series start the basis of X + (q) from that of X, 75 and 783; before
    l(A/m^k) and l(A/(Q^n + m^(n+1))) were read off the tangent cone's
    series, 97 and 805; before c1 was read off the standard criterion
    instead of the u.s.d. scan, 35 and 805; before the sums in dimension
    one under the Cohen-Macaulay certificate were left to their colengths,
    20 and 790."""
    assert tuple(map(sum, zip(*(run[2] for run in runs)))) == (29, 790)


def test_sums_filled_by_closed_forms_match_colengths(runs):
    """The comparison ran in the fixture; here, that it met the sums that
    closed forms filled on those jobs: 584 l(A/(Q^n + m^(n+1))) off the
    tangent cone's series on m-adic jobs, and 160 past the tail on any
    ring, where I_k lies in Q^n and the sum is Q^n.  The graded clause
    reads each of them, and reports only its verdict, so a wrong sum could
    hide behind it.  Before the series rule, the closed forms filled 691:
    403 past the tail and 288 by adding e_0; before the sums in dimension
    one under the Cohen-Macaulay certificate were left to their colengths,
    753."""
    assert sum(run[5][0] for run in runs) == 744


def test_products_filled_by_closed_forms_match_colengths(runs):
    """The comparison ran in the fixture; here, that it met the products
    l(A/Q^n I_k), n, k >= 1, that closed forms filled on those jobs: read
    past the tail as the stage l(A/I_{n+k}), 905 of them; in dimension one
    under the Cohen-Macaulay certificate, by adding n e_0, 485; and off the
    Rees algebra without the certificate, 12.  The Sally values and the
    collapse clause read them."""
    assert sum(run[5][1] for run in runs) == 1402


def test_collapse_clause_by_lengths_matches_the_scan(runs):
    """The comparison ran in the fixture; here, that it met all 103 jobs,
    30 of them with a failing clause."""
    reached = [run[3] for run in runs if run[3] is not False]
    assert (len(reached), sum(w is not None for w in reached)) == (103, 30)


def test_graded_clause_at_every_n_matches_the_report(runs):
    """The comparison ran in the fixture; here, that it met the 55 jobs in
    dimension one, none of them with a failing clause (the drawn curves
    below meet failing ones)."""
    reached = [run[4] for run in runs if run[4] is not False]
    assert (len(reached), sum(w is not None for w in reached)) == (55, 0)


def test_products_meets_and_colons_certify_their_own_colengths(census):
    """(x^2 - x, y^2) has a second point at x = 1, so its product with m,
    its meet with m^2 and its colon by y have no certified colength, nor
    has the colon by y of its product with c = (x^3 + y^2, xy), while its
    sum with m has.  Colons of ideals supported at the origin alone are
    certified: (c : x) = (y, x^3), by the t-trick, and (m^3 : m) = m^2."""
    ring = LocalRing(("x", "y"))
    m = ring.maximal_ideal()
    bad = ring.ideal(["x^2 - x", "y^2"])
    c = ring.ideal(["x^3 + y^2", "x*y"])
    assert m.colength() == 1 and bad.colength() is None and c.colength() == 5
    assert (bad * m).colength() is None
    assert bad.intersect(m.power(2)).colength() is None
    assert (bad + m).colength() == 1
    by_x = c.colon("x")
    assert census["colons"] == 1
    assert by_x is ring.ideal(["y", "x^3"]) and by_x.colength() == 3
    assert m.power(3).colon(m).colength() == 3
    assert bad.colon("y").colength() is None
    assert (c * bad).colon("y").colength() is None


def test_an_explicit_tower_scans_its_whole_tail():
    """I_1 = Q = m, I_2 = m^2 and I_3 = m^3 + (x^2): I_2 = Q I_1 but
    I_3 != Q I_2, so the tail past a first equality is deduced for powers
    only."""
    ring = LocalRing(("x", "y"))
    filt = Filtration(ring, EXPLICIT, {1: ["x", "y"], 2: ["x^2", "x*y", "y^2"],
                                       3: ["x^2", "x*y^2", "y^3"]})
    lengths = verify_admissible(filt, reduction_system(ring, ["x", "y"]), 5)
    assert lengths.flags == (True, True, False, True)
    assert lengths.postulation == 3


def test_products_past_the_tail_stop_below_the_horizon():
    """In k[x,y], I_n = m^n for n < H = 6 and I_6 = m^6 + (x^5), with
    Q = m: every flag holds, so r = 0, but I_6 is not Q I_5.  Each entry
    that ``closed_form`` fills, asked for every n, k <= H + 1, equals the
    colength of its ideal on a fresh handle.  Q^n I_k = I_{n+k} only up to
    n + k = H - 1: at (5, 1), a rule that reached n + k = H would read
    l(A/I_6) = 20 in place of l(A/m^6) = 21."""
    H = 6
    ring = LocalRing(("x", "y"))
    stages = {n: [f"x^{i}*y^{n - i}" for i in range(n + 1)] for n in range(1, H)}
    stages[H] = [f"x^{i}*y^{H - i}" for i in range(H + 1)] + [f"x^{H - 1}"]
    lengths = verify_admissible(Filtration(ring, EXPLICIT, stages),
                                reduction_system(ring, ["x", "y"]), H)
    assert lengths.postulation == 0
    filled, closed = [], filtration.closed_form

    def recorded(lengths, n, k, plus):
        got = closed(lengths, n, k, plus)
        if got is not None:
            filled.append((lengths, n, k, plus, got))
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(filtration, "closed_form", recorded)
        for n in range(H + 2):
            for k in range(H + 2):
                lengths.get(n, k)
                lengths.get(n, k, plus=True)
    check_filled(filled)
    assert any(n + k == H - 1 and n and k and not plus for _, n, k, plus, _ in filled)
    assert (lengths.get(5, 1), lengths.get(0, H)) == (21, 20)


def assert_drawn_job(obj) -> int:
    got, r = assert_job_deductions(parse_config(obj))[:2]
    assert got["verdict"] == "verified", got["name"]
    return r


@settings(max_examples=10, deadline=None)
@given(st.integers(2, 4), st.integers(1, 4), st.sampled_from((None, 1, 2, 5)),
       st.sampled_from(("q", "fp:32003")))
def test_drawn_curves(a, step, c, field):
    """y^a - x^b (+ c x^(b-1) y) with I_1 = m and Q = (x), where r = a - 1."""
    b = a + step
    f = f"y^{a} - x^{b}" + ("" if c is None else f" + {c}*x^{b - 1}*y")
    r = assert_drawn_job({
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
    r = assert_drawn_job({
        "name": "monomial",
        "ring": {"variables": ["x", "y"]},
        "filtration": {"kind": "adic", "stages": {"1": [f"x^{a}", f"y^{a}"] + extras}},
        "reduction": {"generators": [f"x^{a}", f"y^{a}"]}})
    assert r >= 1


# stage one and its reduction Q = (q): each q is a nonzerodivisor on every
# curve below, and every stage-one generator is integral over it, as b > a.
# (x^2, x y) is not Ratliff-Rush closed on some of them: the graded clause
# then fails.
STAGE_ONES = ((["x", "y"], "x"), (["x", "y^2"], "x"), (["x^2", "x*y"], "x^2"))


@settings(max_examples=24, deadline=None)
@given(st.integers(2, 4), st.integers(1, 3), st.sampled_from((None, 1, -1)),
       st.sampled_from(("q", "fp:32003")), st.sampled_from(STAGE_ONES),
       st.booleans())
def test_closed_forms_match_colengths_on_drawn_curves(a, step, c, field, stage_one,
                                                      explicit):
    """On y^a - x^b (+ c x^(b-1) y), with a stage one from STAGE_ONES as a
    tower of powers or as an explicit tower that lists I_1^2, every length
    table entry that ``closed_form`` fills, l(A/(Q^n + I_k)) included,
    equals the colength of a fresh handle, and the collapse clause, the
    graded clause and the containment of ``check_adic_collapse``, scanned at
    every n, agree with the report.  Only the tangent cone's series fills a
    stage l(A/I_k), so only on an m-adic table, and off it a sum is filled
    only past the tail, as l(A/Q^n)."""
    b = a + step
    f = f"y^{a} - x^{b}" + ("" if c is None else f" + {c}*x^{b - 1}*y")
    gens, q = stage_one
    stages = {"1": gens}
    if explicit:
        stages["2"] = [f"({g})*({h})" for i, g in enumerate(gens) for h in gens[i:]]
    filled, closed = [], filtration.closed_form

    def recorded(lengths, n, k, plus):
        got = closed(lengths, n, k, plus)
        if got is not None:
            filled.append((lengths, n, k, plus, got))
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(filtration, "closed_form", recorded)
        got, ring, _, args = run_captured(parse_config({
            "name": "drawn", "field": field, "horizon": 6,
            "ring": {"variables": ["x", "y"], "relations": [f]},
            "filtration": {"kind": "explicit" if explicit else "adic", "stages": stages},
            "reduction": {"generators": [q]}}))[:4]
    assert got["verdict"] == "verified" and got["ring"]["cm_certificate"], got
    assert filled
    for lengths, n, k, plus, value in filled:
        fresh = IdealHandle(ring, lengths.ideal(n, k, plus).gens)
        assert fresh.colength() == value, (n, k, plus)
        m_adic = lengths.modulo is None and lengths.filt.m_adic
        if n == 0 and not plus:
            assert m_adic, (k, stage_one, explicit)
        if plus and not m_adic:
            assert value == lengths.get(n, 0), (n, k, stage_one, explicit)
    check_clause_scans(got, *args)
