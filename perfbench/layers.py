"""Per-layer trace of filtra, installed from outside the package.

Each boundary is a public function or method of one filtra module.  The
tracer replaces it with a timing wrapper at every place the function object
is bound: the defining module, every ``filtra.*`` module that imported it by
name, and the package namespace.  Methods are wrapped on their class.
``uninstall`` puts every original back.

A call that re-enters a boundary already on the stack (recursion, or
``colon`` by an ideal calling ``colon`` by an element) is not a span of its
own: its time stays in the outer call.  Self time is a span's duration minus
the durations of the wrapped spans directly below it.
"""
from __future__ import annotations

import functools
import sys
from statistics import median, median_low
from time import perf_counter

# (boundary, module, attribute); an attribute "Class.method" is a method.
# groebner_basis is one function recorded under two boundaries, split by
# whether every nonzero input generator is a monomial.
BOUNDARIES = (
    ("groebner.groebner_basis", "filtra.groebner", "groebner_basis"),
    ("groebner.GroebnerBasis.normal_form", "filtra.groebner", "GroebnerBasis.normal_form"),
    ("groebner.count_box_complement", "filtra.groebner", "count_box_complement"),
    ("groebner.eliminate", "filtra.groebner", "eliminate"),
    ("ideals.IdealHandle.__mul__", "filtra.ideals", "IdealHandle.__mul__"),
    ("ideals.IdealHandle.intersect", "filtra.ideals", "IdealHandle.intersect"),
    ("ideals.IdealHandle.colon", "filtra.ideals", "IdealHandle.colon"),
    ("ideals.IdealHandle.saturate", "filtra.ideals", "IdealHandle.saturate"),
    ("ideals.IdealHandle.equals_local", "filtra.ideals", "IdealHandle.equals_local"),
    ("ideals.IdealHandle.contains_element", "filtra.ideals", "IdealHandle.contains_element"),
    ("ideals.IdealHandle.colength", "filtra.ideals", "IdealHandle.colength"),
    ("ideals.LocalRing.subquotient_length", "filtra.ideals", "LocalRing.subquotient_length"),
    ("ideals.LocalRing.__init__", "filtra.ideals", "LocalRing.__init__"),
    ("filtration.Filtration.get_ideal", "filtra.filtration", "Filtration.get_ideal"),
    ("filtration.verify_admissible", "filtra.filtration", "verify_admissible"),
    ("filtration.find_reduction", "filtra.filtration", "find_reduction"),
    ("filtration.check_d_sequence", "filtra.filtration", "check_d_sequence"),
    ("filtration.check_usd_bounded", "filtra.filtration", "check_usd_bounded"),
    ("filtration.check_colon_in_i1", "filtra.filtration", "check_colon_in_i1"),
    ("hilbert.fit_hilbert_samuel", "filtra.hilbert", "fit_hilbert_samuel"),
    ("hilbert.fit_sally", "filtra.hilbert", "fit_sally"),
    ("checkers.compute_boundary_data", "filtra.checkers", "compute_boundary_data"),
    ("checkers.evaluate_conditions", "filtra.checkers", "evaluate_conditions"),
    ("checkers.evaluate_structural", "filtra.checkers", "evaluate_structural"),
    ("config.load_config", "filtra.config", "load_config"),
    ("config.parse_config", "filtra.config", "parse_config"),
    ("config.validate_report", "filtra.config", "validate_report"),
    ("report.to_json", "filtra.report", "to_json"),
)

GROEBNER_SPLIT = ("groebner.groebner_basis.monomial", "groebner.groebner_basis.general")


def check_boundaries() -> tuple:
    """One boundary per check, named after its function, in report order."""
    from filtra.checkers import ALL_CHECKS
    return tuple((f"checkers.check_{name}", "filtra.checkers", f"check_{name}")
                 for name in ALL_CHECKS)


def all_boundaries() -> tuple:
    return BOUNDARIES + check_boundaries()


def span_names() -> list:
    """Every name a trace records spans under, in a fixed order."""
    out = []
    for name, _, _ in all_boundaries():
        out.extend(GROEBNER_SPLIT if name == "groebner.groebner_basis" else [name])
    return out


def _all_monomial(gens) -> bool:
    return all(g.is_monomial() for g in gens if not g.is_zero)


class Tracer:
    """Counts calls and sums total and self seconds per boundary."""

    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name in span_names()}
        self.fingerprints = set()   # GroebnerBasis.fingerprint values returned
        self._stack = []            # child seconds of each open span
        self._active = set()        # ids of wrapped functions on the stack
        self._patches = []          # (owner, attribute, original)

    def reset(self):
        for rec in self.stats.values():
            rec[:] = [0, 0.0, 0.0]
        self.fingerprints.clear()

    def snapshot(self) -> dict:
        return {name: tuple(rec) for name, rec in self.stats.items()}

    # -- wrapping -------------------------------------------------------

    def _wrap(self, name: str, fn):
        stats, stack, active = self.stats, self._stack, self._active
        fid = id(fn)
        is_groebner = name == "groebner.groebner_basis"
        fingerprints = self.fingerprints

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if fid in active:
                return fn(*args, **kwargs)
            span = name
            if is_groebner:
                gens = list(args[0])
                args = (gens,) + args[1:]
                span = GROEBNER_SPLIT[0] if _all_monomial(gens) else GROEBNER_SPLIT[1]
            active.add(fid)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                active.discard(fid)
                if stack:
                    stack[-1] += dt
                rec = stats[span]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child
            if is_groebner:
                fingerprints.add(result.fingerprint)
            return result

        return wrapper

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "filtra" or n.startswith("filtra."))]
        for name, modname, attr in all_boundaries():
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def scaled(snapshot: dict, scale: float) -> dict:
    """A snapshot with its seconds multiplied by the pass's host-speed scale."""
    return {name: (calls, total * scale, self_s * scale)
            for name, (calls, total, self_s) in snapshot.items()}


def layer_metrics(snapshots: list, overhead: float) -> dict:
    """Per-pass layer metrics, each the median over the traced passes.

    ``snapshots`` holds one (Tracer.snapshot(), fingerprint count) pair per
    traced pass.  Calls are counted exactly, so their median is a count.
    """
    check_names = {name for name, _, _ in check_boundaries()}
    out = {}
    for name in span_names():
        out[f"{name}.calls"] = (median_low([s[name][0] for s, _ in snapshots]), "count")
        out[f"{name}.total_s"] = (median([s[name][1] for s, _ in snapshots]), "s")
        if name not in check_names:
            out[f"{name}.self_s"] = (median([s[name][2] for s, _ in snapshots]), "s")
    built = median_low([n for _, n in snapshots])
    gb_calls = sum(out[f"{n}.calls"][0] for n in GROEBNER_SPLIT)
    out["groebner.bases_computed"] = (built, "count")
    out["groebner.cache_hit_ratio"] = (1 - built / gb_calls if gb_calls else 0.0, "ratio")
    out["trace.overhead"] = (overhead, "fraction")
    return out
