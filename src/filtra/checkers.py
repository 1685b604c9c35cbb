"""The verification pipeline: invariants, the master inequality, the
boundary-equality characterization and all consequence identities.

Every check reports its gate (applicability), its outcome and enough detail
to audit the numbers.  Checks are never weakened: when a gate is off the
check is skipped and says so, and when a gate is on a failure is a failure.
The gates are data: ``CHECKS`` names each check's hypotheses, and
``run_checks`` evaluates them and calls ``check_<name>`` only when they hold.
"""
from __future__ import annotations

from typing import NamedTuple

from .filtration import (Filtration, LengthTable, ReductionSystem,
                         NotAdmissible, check_colon_in_i1, check_d_sequence,
                         check_usd_bounded)
from .hilbert import (HorizonTooSmall, NoPolynomialTail, PolynomialFit,
                      SallyFit, binom, fit_hilbert_samuel, fit_sally)
from .ideals import LocalRing


STABILITY_MARGIN = 3


class BoundaryData(NamedTuple):
    """Everything numeric the checks consume, for one ring."""

    lengths: LengthTable
    h_filt: list
    h_red: list
    fit_filt: PolynomialFit
    fit_red: PolynomialFit
    sally_values: list
    sally: SallyFit
    stage_one_colength: int
    graded_colength: int      # l(I_1 / (I_2 + Q))
    lhs: int
    rhs: int
    gap: int
    equality: bool
    second_nonnegative: bool
    structural: dict | None = None   # evaluate_structural's result, set by run_checks

    @property
    def ring(self) -> LocalRing:
        return self.lengths.ring

    @property
    def filt(self) -> Filtration:
        return self.lengths.filt

    @property
    def red(self) -> ReductionSystem:
        return self.lengths.red

    @property
    def horizon(self) -> int:
        return self.lengths.horizon

    @property
    def d(self) -> int:
        return self.ring.dimension

    @property
    def cohen_macaulay(self) -> bool:
        """Whether q_1..q_d is a regular sequence, so that A is
        Cohen-Macaulay."""
        return self.lengths.cohen_macaulay

    def e_filt(self, i: int) -> int:
        return self.fit_filt.coefficients[i]

    def e_red(self, i: int) -> int:
        return self.fit_red.coefficients[i]


def compute_boundary_data(lengths: LengthTable) -> BoundaryData:
    """The numbers of A, read from the table that ``verify_admissible``
    built, or, from its ``quotient``, those of C = A/W, read in A: C/XC is
    A/(X + W), so a length over C is the colength of X + W.  d is dim A.
    The lengths l(A/I_n) and l(A/Q^n), the Sally values
    l(A/Q^n I_1) - l(A/I_{n+1}) and l(A/(Q + I_2)) are table entries, so
    where the Cohen-Macaulay certificate holds they come from closed forms
    (``filtration.closed_form``), and where it fails l(A/Q^n) and
    l(A/Q^n I_1) come from one presentation of the Rees algebra A[Q u]."""
    d, horizon = lengths.ring.dimension, lengths.horizon
    get = lengths.get
    h_filt = [get(0, n) for n in range(horizon + 1)]
    h_red = [get(n, 0) for n in range(horizon + 1)]
    fit_filt = fit_hilbert_samuel(h_filt, d)
    fit_red = fit_hilbert_samuel(h_red, d)
    sally_values = []
    for n in range(horizon):
        val = get(n, 1) - h_filt[n + 1]
        if val < 0:
            raise NotAdmissible(
                f"stage {n + 1} is smaller than reduction-power times stage one",
                {"check": "sally_nonnegative", "n": n})
        sally_values.append(val)
    sally = fit_sally(sally_values, d)
    # l(I_1/(I_2 + Q)); verify_admissible proved Q and I_2 inside I_1
    ell_i1 = h_filt[1]
    graded_colength = get(1, 2, plus=True) - ell_i1
    lhs = fit_filt.coefficients[1] - fit_red.coefficients[1]
    rhs = 2 * fit_filt.coefficients[0] - 2 * ell_i1 - graded_colength
    gap = lhs - rhs
    return BoundaryData(
        lengths=lengths, h_filt=h_filt, h_red=h_red,
        fit_filt=fit_filt, fit_red=fit_red, sally_values=sally_values, sally=sally,
        stage_one_colength=ell_i1, graded_colength=graded_colength,
        lhs=lhs, rhs=rhs, gap=gap, equality=(gap == 0),
        second_nonnegative=(rhs >= 0))


def _check(name: str, passed, **details) -> dict:
    """One report entry; ``passed`` is None for a check whose gate is off."""
    status = "skipped" if passed is None else ("pass" if passed else "fail")
    out = {"name": name, "applicable": passed is not None, "status": status}
    if details:
        out["details"] = details
    return out


# -- conditions ------------------------------------------------------------

def evaluate_conditions(data: BoundaryData, power_bound: int) -> dict:
    """The four gate conditions.  When q_1..q_d is a regular sequence, every
    permutation of it and every sequence of its powers is regular too
    (Matsumura, Commutative Ring Theory, Thms 16.1 and 16.3), and a regular
    sequence is a d-sequence (Huneke, Adv. Math. 46, 1982).  So c0 holds, c1
    holds for every exponent, and each (q_j : j != i) : q_i is (q_j : j != i),
    inside Q and so inside I_1: no colon needs computing.  Without the
    certificate, each clause of c0 is one nonzerodivisor test
    (``filtration.check_d_sequence``), and c1 holds where Q is standard, read
    off e_0(Q) and two colengths, or else is scanned the same way
    (``filtration.check_usd_bounded``)."""
    ring, red = data.ring, data.red
    if data.cohen_macaulay:
        c0 = c1 = c2 = True
        w0 = w1 = w2 = None
    else:
        c0, w0 = check_d_sequence(ring, red.generators)
        c1, w1 = check_usd_bounded(ring, red.generators, power_bound, data.e_red(0))
        c2, w2 = check_colon_in_i1(red, data.filt.i1)
    c3 = ring.has_positive_depth()
    out = {
        "c0_d_sequence": {"holds": c0, "witness": w0},
        "c1_usd_bounded": {"holds": c1, "witness": w1, "power_bound": power_bound},
        "c2_colon_in_i1": {"holds": c2, "witness": w2},
        "c3_positive_depth": {"holds": c3,
                              "torsion_length": ring.torsion_length()},
    }
    return out


# -- structural criterion --------------------------------------------------

def evaluate_structural(data: BoundaryData) -> dict:
    """The three-clause structural condition with per-clause witnesses.

    The collapse and graded clauses are decided by lengths, read from the
    table of C = A/W, W the torsion ideal (``LengthTable.quotient``).  Both
    assume the filtration passed ``verify_admissible``: that proves Q inside
    I_1, the chain and I_a I_b inside I_{a+b} for a + b <= H.

    The collapse clause is I_{n+2} inside Q^n I_2 + W for n + 2 <= H.
    Admissibility puts Q^n I_2 + W inside I_{n+2} + W, both m-primary, so
    the clause holds iff their colengths are equal.  Only the first failing
    n scans for its witness, the first generator of I_{n+2} outside.

    The graded clause is (Q^n + W) meet (I_{n+1} + W) = Q^n I_1 + W.
    Admissibility puts the right side in both terms of the meet.  With
    a = Q^n + W and b = I_{n+1} + W, all m-primary, the exact sequence
    0 -> A/(a meet b) -> A/a + A/b -> A/(a + b) -> 0 gives
    l(A/(a meet b)) = l(A/a) + l(A/b) - l(A/(a + b)), and the clause holds
    iff that equals l(A/(Q^n I_1 + W)).  All four are table entries
    (``filtration.closed_form``); the sum is read off the tangent cone's
    series on A's m-adic table, as l(A/Q^n) where the tail puts I_{n+1}
    inside Q^n, and is a colength elsewhere.  Only a failing n builds the
    meet, for its witness: the first of its generators outside the right
    side.
    """
    filt, red, H = data.filt, data.red, data.horizon
    lengths = data.lengths.quotient
    ideal, get = lengths.ideal, lengths.get

    collapse = {"holds": True, "range": [1, H - 2], "witness": None}
    for n in range(1, H - 1):
        if get(n, 2) != get(0, n + 2):
            bad = ideal(n, 2).missing_generator(filt.get_ideal(n + 2))
            collapse = {"holds": False, "range": [1, H - 2],
                        "witness": {"n": n, "generator": str(bad)}}
            break

    graded = {"holds": True, "range": [1, H - 1], "witness": None}
    for n in range(1, H):
        meet = get(n, 0) + get(0, n + 1) - get(n, n + 1, plus=True)
        if meet != get(n, 1):
            bad = ideal(n, 1).missing_generator(ideal(n, 0).intersect(ideal(0, n + 1)))
            graded = {"holds": False, "range": [1, H - 1],
                      "witness": {"n": n, "generator": None if bad is None else str(bad)}}
            break

    # on a regular sequence each colon is (q_j : j != i), inside Q
    # (see ``evaluate_conditions``)
    colon = {"holds": True, "witness": None}
    if not data.cohen_macaulay:
        holds, bad = check_colon_in_i1(red, data.lengths.ideal(1, 2, plus=True))
        if not holds:
            colon = {"holds": False,
                     "witness": {"i": bad["i"], "generator": bad["witness"]}}

    holds = collapse["holds"] and graded["holds"] and colon["holds"]
    return {"holds": holds, "clause_collapse": collapse,
            "clause_graded": graded, "clause_colon": colon}


# -- individual checks -----------------------------------------------------

def check_master_inequality(data: BoundaryData) -> dict:
    """A reduction Q of I has e_0(Q) = e_0(I) > 0; a multiplicity that is
    not positive betrays an inconsistent fit, such as a wrong dimension."""
    e0_match = data.e_filt(0) == data.e_red(0)
    passed = data.gap >= 0 and e0_match and data.e_filt(0) > 0
    return _check(
        "master_inequality", passed,
        lhs=data.lhs, rhs=data.rhs, gap=data.gap,
        multiplicities_agree=e0_match,
        second_part_nonnegative=data.second_nonnegative)


def check_boundary_equality(data: BoundaryData) -> dict:
    structural = data.structural["holds"]
    return _check("boundary_equality", data.equality == structural,
                  equality=data.equality, structural_holds=structural)


def check_torsion_in_stage_two(data: BoundaryData) -> dict:
    W = data.ring.torsion_ideal()
    return _check("torsion_in_stage_two", W.is_zero or data.filt.get_ideal(2).contains_ideal(W),
                  torsion_generators=[str(g) for g in W.gens])


def check_adic_collapse(data: BoundaryData) -> dict:
    """I_{n+2} inside Q^n I_1, and Q^n meet I_{n+1} equal to Q^n I_1.  Under
    the gate's C3 the torsion W is zero, so the second half is the graded
    clause of the structural condition, whose witness is read here.  The
    collapse clause I_{n+2} inside Q^n I_2, inside Q^n I_1, implies the first
    half at every n before the clause's first failure, so the scan starts
    there."""
    filt, H = data.filt, data.horizon
    I1 = filt.i1
    detail = {}
    ok = True
    collapse = data.structural["clause_collapse"]
    start = H - 1 if collapse["holds"] else collapse["witness"]["n"]
    for n in range(start, H - 1):
        target = data.red.handle.power(n) * I1
        if not target.contains_ideal(filt.get_ideal(n + 2)):
            ok = False
            detail["containment_failed_at"] = n
            break
    graded = data.structural["clause_graded"]
    if ok and not graded["holds"]:
        ok = False
        detail["intersection_failed_at"] = graded["witness"]["n"]
    return _check("adic_collapse", ok, **detail)


def check_coefficient_identities(data: BoundaryData) -> dict:
    d = data.d
    expected_e2 = (data.e_red(1) + data.e_red(2) + data.e_filt(1)
                   - data.e_filt(0) + data.stage_one_colength)
    ok = data.e_filt(2) == expected_e2
    higher = {}
    for i in range(3, d + 1):
        want = data.e_red(i - 2) + 2 * data.e_red(i - 1) + data.e_red(i)
        higher[f"e{i}"] = {"actual": data.e_filt(i), "expected": want}
        ok = ok and data.e_filt(i) == want
    return _check("coefficient_identities", ok,
                  e2_actual=data.e_filt(2), e2_expected=expected_e2,
                  higher=higher)


def check_fiber_cone_identity(data: BoundaryData) -> dict:
    """l(A/Q^n I_1) - l(A/Q^n) must equal l(A/I_1) * C(n+d-1, d-1); the
    length shadow of the reduction fiber being a polynomial ring over A/I_1."""
    d, H = data.d, data.horizon
    ell = data.stage_one_colength
    bad = None
    for n in range(0, H):
        lhs = data.sally_values[n] + data.h_filt[n + 1] - data.h_red[n]
        rhs = ell * binom(n + d - 1, d - 1)
        if lhs != rhs:
            bad = {"n": n, "actual": lhs, "expected": rhs}
            break
    return _check("fiber_cone_identity", bad is None,
                  checked_range=[0, H - 1], failed=bad)


def check_sally_length_identity(data: BoundaryData) -> dict:
    """l(A/I_{n+1}) = P(n) - s_n, P with binomial coefficients e_0,
    e_0 + e_1(Q) - l(A/I_1) and e_{i-1}(Q) + e_i(Q) for i = 2..d."""
    d, H = data.d, data.horizon
    e0 = data.e_filt(0)
    coeffs = ((e0, e0 + data.e_red(1) - data.stage_one_colength)
              + tuple(data.e_red(i - 1) + data.e_red(i) for i in range(2, d + 1)))
    formula = PolynomialFit(coeffs, d, 0, 0).value
    bad = None
    for n in range(1, H):
        got = formula(n) - data.sally_values[n]
        if got != data.h_filt[n + 1]:
            bad = {"n": n, "formula": got, "actual": data.h_filt[n + 1]}
            break
    at_zero = formula(0) - data.sally_values[0] == data.h_filt[1]
    return _check("sally_length_identity", bad is None,
                  failed=bad, holds_at_zero_informational=at_zero)


def check_sally_coefficient_relations(data: BoundaryData) -> dict:
    """e_1 = e_0 + e_1(Q) - l(A/I_1) + e_top[0], e_i = e_{i-1}(Q) + e_i(Q)
    + e_top[i-1] for i = 2..d; e_top is the Sally fit in the degree-(d-1)
    basis, whose first d - s terms are zero for a module of dimension s."""
    d, s = data.d, data.sally.dim
    etop = data.sally.e_top
    want = {1: data.e_filt(0) + data.e_red(1) - data.stage_one_colength + etop[0]}
    want.update({i: data.e_red(i - 1) + data.e_red(i) + etop[i - 1]
                 for i in range(2, d + 1)})
    mism = {f"e{i}": {"actual": data.e_filt(i), "expected": w}
            for i, w in want.items() if data.e_filt(i) != w}
    return _check("sally_coefficient_relations", not mism,
                  branch=("full_dimension" if s == d else "small_dimension"),
                  module_dimension=s, mismatches=mism)


def check_sally_relations_at_equality(data: BoundaryData) -> dict:
    d = data.d
    etop = data.sally.e_top
    ell = data.stage_one_colength
    want = ([data.e_filt(0) - ell - data.graded_colength,
             data.e_filt(1) - data.e_filt(0) + ell]
            + [data.e_red(i - 1) + data.e_red(i) for i in range(2, d)])[:d]
    mism = {f"eS{i}": {"actual": etop[i], "expected": w}
            for i, w in enumerate(want) if etop[i] != w}
    return _check("sally_relations_at_equality", not mism,
                  coefficients=list(etop), mismatches=mism)


def check_sally_lower_bound(data: BoundaryData) -> dict:
    """The floor e_top[0] is the leading Sally coefficient at dimension d, else 0."""
    excess = (data.e_filt(1) - data.e_red(1) - data.e_filt(0)
              + data.stage_one_colength)
    floor = data.sally.e_top[0]
    return _check("sally_lower_bound", excess >= floor,
                  excess=excess, floor=floor)


def check_multiplicity_colon_formula(data: BoundaryData) -> dict:
    """e_0 = l(C/Q) - l(col/(col meet Q)) = l(C/(col + Q)) in the
    torsion-free quotient C = A/W, with col = (q_1..q_{d-1}) : q_d, read in
    A as l(A/(Q + W)), from C's length table, and ((q_1..q_{d-1}) + W) : q_d.
    Under the Cohen-Macaulay certificate W = 0 and q_d is regular modulo
    the others, so col lies in Q and the expected value is l(A/Q), a table
    entry, with no colon."""
    red = data.red
    first = data.lengths.quotient.get(1, 0)
    if data.cohen_macaulay:
        expected = first
    else:
        W = data.ring.torsion_ideal()
        col = (red.omit_handle(len(red.generators) - 1) + W).colon(red.generators[-1])
        expected = (col + red.handle).finite_colength()
    return _check("multiplicity_colon_formula", data.e_filt(0) == expected,
                  colength_modulo_reduction=first,
                  colon_correction=first - expected, expected=expected,
                  actual=data.e_filt(0))


def check_torsion_quotient_reduction(data: BoundaryData) -> dict:
    """The boundary equality holds in A iff it holds in C = A/W and W lies in
    I_2 + Q.  C's numbers come from ``compute_boundary_data`` on C's length
    table (``LengthTable.quotient``), whose BoundaryData still names A as
    its ring; only its gap, its equality and its exception are read.  C's
    filtration is admissible because A's is, so ``verify_admissible`` is
    not run on it.  Under X -> X + W: the
    chain, the products, Q in I_1 and each tail flag I_{n+1} = Q I_n pass to
    the images, so r_C <= r_A; I_1 + W and Q + W keep their certificate of
    finite colength, as adding W only shrinks the support; dim C = dim A,
    as W + J is the global J : m^inf, which drops only components at the
    origin, and d >= 1; no q_i lies in W, as W is nilpotent and Q is a
    parameter ideal; and the sally_nonnegative guard cannot fire, as
    Q^n I_1 + W lies in I_{n+1} + W."""
    W = data.ring.torsion_ideal()
    if not W.gens:
        return _check("torsion_quotient_reduction", True,
                      torsion_free_already=True, equality=data.equality)
    w_inside = data.lengths.ideal(1, 2, plus=True).contains_ideal(W)
    try:
        cdata = compute_boundary_data(data.lengths.quotient)
    except (NotAdmissible, HorizonTooSmall, NoPolynomialTail) as exc:
        return _check("torsion_quotient_reduction", False,
                      error=f"{type(exc).__name__}: {exc}")
    reduced_equality = cdata.equality and w_inside
    return _check("torsion_quotient_reduction", data.equality == reduced_equality,
                  equality=data.equality, quotient_equality=cdata.equality,
                  torsion_inside_stage2_plus_reduction=w_inside,
                  quotient_gap=cdata.gap)


def check_torsion_graded_pieces(data: BoundaryData) -> dict:
    """The pieces l((I_n meet W)/(I_{n+1} meet W)), n = 2..H-1 and I_2 meet W
    read as W, are differences of l(W/(I_n meet W)) = l(A/I_n) - l(A/(I_n + W)),
    the last read from C's length table.  They sum to its value at H, which
    is l(W) iff I_H meet W vanishes."""
    ring, H = data.ring, data.horizon
    W = ring.torsion_ideal()
    w_len = ring.torsion_length()
    if not W.gens:
        return _check("torsion_graded_pieces", True,
                      pieces=[0, 0], total=0, torsion_length=0)
    get = data.lengths.quotient.get
    outside = [0, 0, 0] + [data.h_filt[n] - get(0, n) for n in range(3, H + 1)]
    pieces = [0, 0] + [outside[n + 1] - outside[n] for n in range(2, H)]
    tail_empty = outside[H] == w_len
    return _check("torsion_graded_pieces", tail_empty,
                  pieces=pieces, total=outside[H], torsion_length=w_len,
                  tail_vanishes=tail_empty)


def check_small_stage_two_collapse(data: BoundaryData) -> dict:
    """I_{n+1} = Q^n I_1 for n = 1..H-1 iff the Sally values vanish there.
    Assumes ``verify_admissible`` passed: Q in I_1 and I_a I_b in I_{a+b} for
    a + b <= H put Q^n I_1 in I_{n+1}, and equal colengths then mean equal."""
    cm = data.cohen_macaulay
    svan = data.sally.vanishes
    stages_ok = not any(data.sally_values[1:])
    return _check("small_stage_two_collapse", cm and svan and stages_ok,
                  cohen_macaulay=cm, sally_vanishes=svan,
                  stages_collapse=stages_ok)


def check_base_reduction_equal(data: BoundaryData) -> dict:
    """I_n = Q^n for n = 1..H iff the length tables agree: admissibility puts
    Q^n in I_n (see ``check_small_stage_two_collapse``)."""
    coeffs_equal = data.fit_filt.coefficients == data.fit_red.coefficients
    cm = data.cohen_macaulay
    adic = data.h_filt[1:] == data.h_red[1:]
    return _check("base_reduction_equal", coeffs_equal and cm and adic,
                  coefficients_equal=coeffs_equal, cohen_macaulay=cm,
                  collapses_to_powers=adic)


def check_fit_stability(data: BoundaryData) -> dict:
    """Recompute both fits with a longer horizon, its lengths read from the
    job's length table; coefficients must agree."""
    longer = range(data.horizon + 1, data.horizon + STABILITY_MARGIN + 1)
    h_filt = data.h_filt + [data.lengths.get(0, n) for n in longer]
    h_red = data.h_red + [data.lengths.get(n, 0) for n in longer]
    try:
        long_filt = fit_hilbert_samuel(h_filt, data.d)
        long_red = fit_hilbert_samuel(h_red, data.d)
    except (HorizonTooSmall, NoPolynomialTail) as exc:
        return _check("fit_stability", False,
                      error=f"{type(exc).__name__}: {exc}")
    ok = (long_filt.coefficients == data.fit_filt.coefficients
          and long_red.coefficients == data.fit_red.coefficients
          and long_filt.postulation == data.fit_filt.postulation
          and long_red.postulation == data.fit_red.postulation)
    return _check("fit_stability", ok,
                  margin=STABILITY_MARGIN,
                  extended_filtration=list(long_filt.coefficients),
                  extended_reduction=list(long_red.coefficients))


# -- the gates -------------------------------------------------------------

C0, C1, C2, C3 = ("c0_d_sequence", "c1_usd_bounded", "c2_colon_in_i1",
                  "c3_positive_depth")
EQ = "equality"

# Facts a gate can need or a skipped check can report, besides the four
# conditions.  Each is computed at most once per run, and only when asked for.
_FACTS = {
    EQ: lambda data: data.equality,
    "structural_holds": lambda data: data.structural["holds"],
    "d_at_least_two": lambda data: data.d >= 2,
    "sally_nonvanishing": lambda data: not data.sally.vanishes,
    "torsion_generators": lambda data: [str(g) for g in data.ring.torsion_ideal().gens],
    # Q lies inside Q + I_2, so equal colengths mean I_2 lies inside Q
    "stage_two_inside_reduction":
        lambda data: data.lengths.get(1, 2, plus=True) == data.h_red[1],
    # Q lies inside I_1 (verify_admissible), so equal colengths mean equal ideals
    "stage_one_is_reduction": lambda data: data.h_filt[1] == data.h_red[1],
}


class Gate(NamedTuple):
    """A check: ``check_<name>`` runs when every fact in ``needs`` holds;
    otherwise it is skipped and reports the facts in ``reports``."""

    name: str
    needs: tuple = ()
    reports: tuple = ()


# In report order.
CHECKS = (
    Gate("master_inequality"),
    Gate("boundary_equality", (C1, C2), (EQ, "structural_holds")),
    Gate("torsion_in_stage_two", (EQ, C1, C2), ("torsion_generators",)),
    Gate("adic_collapse", (EQ, C1, C2, C3)),
    Gate("coefficient_identities", (EQ, "d_at_least_two", C1, C2, C3)),
    Gate("fiber_cone_identity", (C0, C2)),
    Gate("sally_length_identity", (C0, C2)),
    Gate("sally_coefficient_relations", (C0, C2)),
    Gate("sally_relations_at_equality", (EQ, "sally_nonvanishing", C1, C2, C3)),
    Gate("sally_lower_bound", (C0, C2)),
    Gate("multiplicity_colon_formula", (C1,)),
    Gate("torsion_quotient_reduction", (C1, C2)),
    Gate("torsion_graded_pieces", (EQ,)),
    Gate("small_stage_two_collapse", (EQ, C1, C2, "stage_two_inside_reduction"),
         ("stage_two_inside_reduction",)),
    Gate("base_reduction_equal", (EQ, C1, C2, "stage_one_is_reduction"),
         ("stage_one_is_reduction",)),
    Gate("fit_stability"),
)

ALL_CHECKS = tuple(gate.name for gate in CHECKS)


def run_checks(data: BoundaryData, conditions: dict, structural: dict,
               selected=None) -> list:
    """Evaluate each selected check's gate and run ``check_<name>`` when it
    holds.  The function is looked up at call time, so a rebound module
    attribute is what runs."""
    data = data._replace(structural=structural)
    facts = {name: c["holds"] for name, c in conditions.items()}

    def fact(name):
        if name not in facts:
            facts[name] = _FACTS[name](data)
        return facts[name]

    out = []
    for gate in CHECKS:
        if selected is not None and gate.name not in selected:
            continue
        if all(fact(f) for f in gate.needs):
            out.append(globals()[f"check_{gate.name}"](data))
        else:
            out.append(_check(gate.name, None, **{f: fact(f) for f in gate.reports}))
    return out

