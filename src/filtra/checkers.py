"""The verification pipeline: invariants, the master inequality, the
boundary-equality characterization and all consequence identities.

Every check reports its gate (applicability), its outcome and enough detail
to audit the numbers.  Checks are never weakened: when a gate is off the
check is skipped and says so, and when a gate is on a failure is a failure.
The gates are data: ``CHECKS`` names each check's hypotheses, and
``run_checks`` evaluates them and calls ``check_<name>`` only when they hold.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

from .filtration import (Filtration, ReductionSystem, EXPLICIT, ADIC,
                         NotAdmissible, check_colon_in_i1, check_d_sequence,
                         check_usd_bounded, reduction_system, verify_admissible)
from .hilbert import (HorizonTooSmall, NoPolynomialTail, PolynomialFit,
                      SallyFit, binom, fit_hilbert_samuel, fit_sally)
from .ideals import IdealHandle, LocalRing


STABILITY_MARGIN = 3


@dataclass
class BoundaryData:
    """Everything numeric the checks consume, for one ring."""

    ring: LocalRing
    filt: Filtration
    red: ReductionSystem
    horizon: int
    h_filt: list
    h_red: list
    fit_filt: PolynomialFit
    fit_red: PolynomialFit
    sally_values: list
    sally: SallyFit
    q_powers: dict
    stage_one_colength: int
    graded_colength: int      # l(I_1 / (I_2 + Q))
    lhs: int
    rhs: int
    gap: int
    equality: bool
    second_nonnegative: bool
    structural: dict | None = None   # evaluate_structural's result, set by run_checks

    @property
    def d(self) -> int:
        return self.ring.dimension

    def e_filt(self, i: int) -> int:
        return self.fit_filt.coefficients[i]

    def e_red(self, i: int) -> int:
        return self.fit_red.coefficients[i]


def compute_boundary_data(ring: LocalRing, filt: Filtration, red: ReductionSystem,
                          horizon: int) -> BoundaryData:
    d = ring.dimension
    q_powers = {0: ring.unit_ideal()}
    for n in range(1, horizon + 1):
        q_powers[n] = q_powers[n - 1] * red.handle
    h_filt = [filt.get_ideal(n).finite_colength() for n in range(horizon + 1)]
    h_red = [q_powers[n].finite_colength() for n in range(horizon + 1)]
    fit_filt = fit_hilbert_samuel(h_filt, d)
    fit_red = fit_hilbert_samuel(h_red, d)
    sally_values = []
    I1 = filt.i1
    for n in range(horizon):
        val = (q_powers[n] * I1).finite_colength() - h_filt[n + 1]
        if val < 0:
            raise NotAdmissible(
                f"stage {n + 1} is smaller than reduction-power times stage one",
                {"check": "sally_nonnegative", "n": n})
        sally_values.append(val)
    sally = fit_sally(sally_values, d)
    I2 = filt.get_ideal(2)
    graded_colength = ring.subquotient_length(I1, I2 + red.handle)
    ell_i1 = h_filt[1]
    lhs = fit_filt.coefficients[1] - fit_red.coefficients[1]
    rhs = 2 * fit_filt.coefficients[0] - 2 * ell_i1 - graded_colength
    gap = lhs - rhs
    return BoundaryData(
        ring=ring, filt=filt, red=red, horizon=horizon,
        h_filt=h_filt, h_red=h_red, fit_filt=fit_filt, fit_red=fit_red,
        sally_values=sally_values, sally=sally, q_powers=q_powers,
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

def evaluate_conditions(ring: LocalRing, filt: Filtration, red: ReductionSystem,
                        power_bound: int) -> dict:
    c0, w0 = check_d_sequence(ring, red.generators)
    c1, w1 = check_usd_bounded(ring, red.generators, power_bound)
    c2, w2 = check_colon_in_i1(ring, red, filt.i1)
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

def evaluate_structural(data: BoundaryData, W: IdealHandle) -> dict:
    """The three-clause structural condition with per-clause witnesses."""
    filt, red, H = data.filt, data.red, data.horizon
    ring = data.ring
    I1, I2 = filt.i1, filt.get_ideal(2)

    collapse = {"holds": True, "range": [1, H - 2], "witness": None}
    for n in range(1, H - 1):
        bad = (data.q_powers[n] * I2 + W).missing_generator(filt.get_ideal(n + 2))
        if bad is not None:
            collapse = {"holds": False, "range": [1, H - 2],
                        "witness": {"n": n, "generator": str(bad)}}
            break

    graded = {"holds": True, "range": [1, H - 1], "witness": None}
    for n in range(1, H):
        left = (data.q_powers[n] + W).intersect(filt.get_ideal(n + 1) + W)
        right = data.q_powers[n] * I1 + W
        if not left.equals_local(right):
            bad = right.missing_generator(left)
            graded = {"holds": False, "range": [1, H - 1],
                      "witness": {"n": n, "generator": None if bad is None else str(bad)}}
            break

    colon = {"holds": True, "witness": None}
    i2q = I2 + red.handle
    for i in range(red.count):
        bad = i2q.missing_generator(red.omit_handle(i).colon(red.generators[i]))
        if bad is not None:
            colon = {"holds": False,
                     "witness": {"i": i + 1, "generator": str(bad)}}
            break

    holds = collapse["holds"] and graded["holds"] and colon["holds"]
    return {"holds": holds, "clause_collapse": collapse,
            "clause_graded": graded, "clause_colon": colon}


# -- individual checks -----------------------------------------------------

def check_master_inequality(data: BoundaryData) -> dict:
    e0_match = data.e_filt(0) == data.e_red(0)
    passed = data.gap >= 0 and e0_match
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
    return _check("torsion_in_stage_two", data.filt.get_ideal(2).contains_ideal(W),
                  torsion_generators=[str(g) for g in W.gens])


def check_adic_collapse(data: BoundaryData) -> dict:
    """I_{n+2} inside Q^n I_1, and Q^n meet I_{n+1} equal to Q^n I_1.  Under
    the gate's C3 the torsion W is zero, so the second half is the graded
    clause of the structural condition, whose witness is read here."""
    filt, H = data.filt, data.horizon
    I1 = filt.i1
    detail = {}
    ok = True
    for n in range(1, H - 1):
        target = data.q_powers[n] * I1
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
    d, H = data.d, data.horizon
    e0 = data.e_filt(0)
    second = e0 + data.e_red(1) - data.stage_one_colength

    def formula(n: int) -> int:
        total = e0 * binom(n + d, d) - second * binom(n + d - 1, d - 1)
        for i in range(2, d + 1):
            term = (data.e_red(i - 1) + data.e_red(i)) * binom(n + d - i, d - i)
            total += -term if i % 2 else term
        return total

    ok = True
    bad = None
    for n in range(1, H):
        if formula(n) - data.sally_values[n] != data.h_filt[n + 1]:
            ok = False
            bad = {"n": n, "formula": formula(n) - data.sally_values[n],
                   "actual": data.h_filt[n + 1]}
            break
    at_zero = formula(0) - data.sally_values[0] == data.h_filt[1]
    return _check("sally_length_identity", ok,
                  failed=bad, holds_at_zero_informational=at_zero)


def check_sally_coefficient_relations(data: BoundaryData) -> dict:
    d, s = data.d, data.sally.dim
    eS = data.sally.e_coeff
    mism = {}
    if s == d:
        want = data.e_filt(0) + data.e_red(1) - data.stage_one_colength + eS(0)
        if data.e_filt(1) != want:
            mism["e1"] = {"actual": data.e_filt(1), "expected": want}
        for i in range(2, d + 1):
            want = data.e_red(i - 1) + data.e_red(i) + eS(i - 1)
            if data.e_filt(i) != want:
                mism[f"e{i}"] = {"actual": data.e_filt(i), "expected": want}
    else:
        want = data.e_filt(0) + data.e_red(1) - data.stage_one_colength
        if data.e_filt(1) != want:
            mism["e1"] = {"actual": data.e_filt(1), "expected": want}
        sign = -1 if (d - s) % 2 else 1
        for i in range(2, d + 1):
            want = data.e_red(i - 1) + data.e_red(i)
            if i >= d - s + 1:
                want += sign * eS(i - d + s - 1)
            if data.e_filt(i) != want:
                mism[f"e{i}"] = {"actual": data.e_filt(i), "expected": want}
    return _check("sally_coefficient_relations", not mism,
                  branch=("full_dimension" if s == d else "small_dimension"),
                  module_dimension=s, mismatches=mism)


def check_sally_relations_at_equality(data: BoundaryData) -> dict:
    d = data.d
    etop = data.sally.e_top
    mism = {}
    want0 = data.e_filt(0) - data.stage_one_colength - data.graded_colength
    if etop[0] != want0:
        mism["eS0"] = {"actual": etop[0], "expected": want0}
    want1 = data.e_filt(1) - data.e_filt(0) + data.stage_one_colength
    if d >= 2 and etop[1] != want1:
        mism["eS1"] = {"actual": etop[1], "expected": want1}
    for i in range(2, d):
        want = data.e_red(i - 1) + data.e_red(i)
        if etop[i] != want:
            mism[f"eS{i}"] = {"actual": etop[i], "expected": want}
    return _check("sally_relations_at_equality", not mism,
                  coefficients=list(etop), mismatches=mism)


def check_sally_lower_bound(data: BoundaryData) -> dict:
    excess = (data.e_filt(1) - data.e_red(1) - data.e_filt(0)
              + data.stage_one_colength)
    floor = data.sally.e_coeff(0) if data.sally.dim == data.d else 0
    return _check("sally_lower_bound", excess >= floor,
                  excess=excess, floor=floor)


def check_multiplicity_colon_formula(data: BoundaryData) -> dict:
    ring = data.ring
    C = ring.torsion_free_quotient()
    gens = list(data.red.generators)
    qc = C.ideal(gens)
    first = qc.finite_colength()
    prefix = C.ideal(gens[:-1])
    col = prefix.colon(gens[-1])
    inter = col.intersect(qc)
    second = C.subquotient_length(col, inter) if col.gens else 0
    expected = first - second
    return _check("multiplicity_colon_formula", data.e_filt(0) == expected,
                  colength_modulo_reduction=first,
                  colon_correction=second, expected=expected,
                  actual=data.e_filt(0))


def check_torsion_quotient_reduction(data: BoundaryData) -> dict:
    ring, filt, H = data.ring, data.filt, data.horizon
    W = ring.torsion_ideal()
    w_inside = (filt.get_ideal(2) + data.red.handle).contains_ideal(W)
    if not W.gens:
        return _check("torsion_quotient_reduction", True,
                      torsion_free_already=True, equality=data.equality)
    C = ring.torsion_free_quotient()
    stages = {n: C.transport(filt.get_ideal(n)) for n in range(2, H + 1)}
    cfilt = Filtration(C, EXPLICIT, C.transport(filt.i1), explicit=stages,
                       hard_cap=filt.hard_cap)
    cred = reduction_system(C, list(data.red.generators))
    try:
        verify_admissible(cfilt, cred, H)
        cdata = compute_boundary_data(C, cfilt, cred, H)
    except (NotAdmissible, HorizonTooSmall, NoPolynomialTail) as exc:
        return _check("torsion_quotient_reduction", False,
                      error=f"{type(exc).__name__}: {exc}")
    reduced_equality = cdata.equality and w_inside
    return _check("torsion_quotient_reduction", data.equality == reduced_equality,
                  equality=data.equality, quotient_equality=cdata.equality,
                  torsion_inside_stage2_plus_reduction=w_inside,
                  quotient_gap=cdata.gap)


def check_torsion_graded_pieces(data: BoundaryData) -> dict:
    ring, filt, H = data.ring, data.filt, data.horizon
    W = ring.torsion_ideal()
    w_len = ring.torsion_length()
    if not W.gens:
        return _check("torsion_graded_pieces", True,
                      pieces=[0, 0], total=0, torsion_length=0)
    pieces = [0, 0]
    cuts = {n: filt.get_ideal(n).intersect(W) for n in range(3, H + 1)}
    pieces.append(ring.subquotient_length(W, cuts[3]))
    for n in range(3, H):
        pieces.append(ring.subquotient_length(cuts[n], cuts[n + 1]))
    tail_empty = len(cuts[H].gens) == 0
    total = sum(pieces)
    ok = tail_empty and total == w_len
    return _check("torsion_graded_pieces", ok,
                  pieces=pieces, total=total, torsion_length=w_len,
                  tail_vanishes=tail_empty)


def check_small_stage_two_collapse(data: BoundaryData) -> dict:
    ring, filt, H = data.ring, data.filt, data.horizon
    cm = ring.is_cm_via_parameters(data.red.generators)
    svan = data.sally.vanishes
    stages_ok = True
    for n in range(1, H):
        if not filt.get_ideal(n + 1).equals_local(data.q_powers[n] * filt.i1):
            stages_ok = False
            break
    return _check("small_stage_two_collapse", cm and svan and stages_ok,
                  cohen_macaulay=cm, sally_vanishes=svan,
                  stages_collapse=stages_ok)


def check_base_reduction_equal(data: BoundaryData) -> dict:
    ring, filt, H = data.ring, data.filt, data.horizon
    coeffs_equal = data.fit_filt.coefficients == data.fit_red.coefficients
    cm = ring.is_cm_via_parameters(data.red.generators)
    adic = all(filt.get_ideal(n).equals_local(data.q_powers[n])
               for n in range(1, H + 1))
    return _check("base_reduction_equal", coeffs_equal and cm and adic,
                  coefficients_equal=coeffs_equal, cohen_macaulay=cm,
                  collapses_to_powers=adic)


def check_fit_stability(data: BoundaryData) -> dict:
    """Recompute both fits with a longer horizon; coefficients must agree."""
    H = data.horizon + STABILITY_MARGIN
    filt, red = data.filt, data.red
    h_filt = list(data.h_filt)
    h_red = list(data.h_red)
    q = data.q_powers[data.horizon]
    for n in range(data.horizon + 1, H + 1):
        h_filt.append(filt.get_ideal(n).finite_colength())
        q = q * red.handle
        h_red.append(q.finite_colength())
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
    "stage_two_inside_reduction":
        lambda data: data.red.handle.contains_ideal(data.filt.get_ideal(2)),
    "stage_one_is_reduction": lambda data: data.filt.i1.equals_local(data.red.handle),
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
    data = replace(data, structural=structural)
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

