"""Layer spans and counts, taken from outside the program.

The tracer rebinds public names of ``galcalc`` modules in this process
only: every module attribute (or class attribute) that holds one of the
wrapped functions is replaced by a wrapper that records a span and reads
counts from the call's arguments, return value or exception.  No file
of the program changes.  Spans nest in call order; a span's self time is
its duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# layer metric prefix -> (module, attribute path)
WRAPPED = (
    ("perm.normal_closure", "galcalc.perm", "PermGroup.normal_closure"),
    ("perm.quotient", "galcalc.perm", "PermGroup.quotient"),
    ("perm.elementary_abelian", "galcalc.perm", "PermGroup.elementary_abelian_p_subgroups"),
    ("perm.homomorphisms", "galcalc.perm", "homomorphisms"),
    ("perm.hom_classes", "galcalc.perm", "hom_conjugacy_classes"),
    ("perm.find_isomorphism", "galcalc.perm", "find_isomorphism"),
    ("perm.find_surjection", "galcalc.perm", "find_surjection"),
    ("catalogue.catalogue_group", "galcalc.catalogue", "catalogue_group"),
    ("catalogue.name_group", "galcalc.catalogue", "name_group"),
    ("orbitcat.close_family", "galcalc.orbitcat", "close_family"),
    ("orbitcat.orbit_category", "galcalc.orbitcat", "orbit_category"),
    ("orbitcat.nerve_pi1", "galcalc.orbitcat", "nerve_pi1_presentation"),
    ("fp.simplify", "galcalc.fp", "simplify"),
    ("fp.coset_enumeration", "galcalc.fp", "coset_enumeration"),
    ("fp.abelianization", "galcalc.fp", "abelianization"),
    ("fp.pushout", "galcalc.fp", "pushout"),
    ("fp.identify", "galcalc.fp", "identify_finite"),
    ("pipelines.candidates", "galcalc.pipelines", "stmod_candidates"),
    ("pipelines.cross_check", "galcalc.pipelines", "stmod_cross_check"),
    ("groupoid.hom_groupoid", "galcalc.groupoid", "hom_groupoid"),
    ("gset.classify_torsors", "galcalc.gset", "classify_torsors"),
)

# self-time metrics reported per layer span (catalogue_group is a
# boundary for counting only: its self time is cache lookups)
TIMED = tuple(name for name, _, _ in WRAPPED if name != "catalogue.catalogue_group")

COUNTS = (
    "orbitcat.family_size",
    "orbitcat.objects",
    "orbitcat.morphisms",
    "orbitcat.pi1_generators",
    "orbitcat.pi1_relators",
    "fp.simplified_generators",
    "fp.simplified_relators",
    "fp.coset_enumeration_calls",
    "fp.coset_limit_hits",
    "pipelines.candidate_pool",
    "catalogue.groups_enumerated",
    "perm.normal_closure_calls",
    "perm.elementary_abelian_calls",
    "perm.homs_found",
    "perm.find_isomorphism_calls",
    "perm.products",
    "groupoid.components",
    "gset.torsor_classes",
)

PER_LAYER = tuple(f"{name}_s" for name in TIMED) + COUNTS


def _count_result(counts: dict, name: str, result) -> None:
    if name == "orbitcat.close_family":
        counts["orbitcat.family_size"] += len(result)
    elif name == "orbitcat.orbit_category":
        counts["orbitcat.objects"] += len(result.objects)
        counts["orbitcat.morphisms"] += len(result.morphisms)
    elif name == "orbitcat.nerve_pi1":
        counts["orbitcat.pi1_generators"] += result.ngens
        counts["orbitcat.pi1_relators"] += len(result.relators)
    elif name == "fp.simplify":
        counts["fp.simplified_generators"] += result.ngens
        counts["fp.simplified_relators"] += len(result.relators)
    elif name == "fp.coset_enumeration":
        counts["fp.coset_enumeration_calls"] += 1
    elif name == "pipelines.candidates":
        counts["pipelines.candidate_pool"] += len(result)
    elif name == "perm.normal_closure":
        counts["perm.normal_closure_calls"] += 1
    elif name == "perm.elementary_abelian":
        counts["perm.elementary_abelian_calls"] += 1
    elif name == "perm.homomorphisms":
        counts["perm.homs_found"] += len(result)
    elif name == "perm.find_isomorphism":
        counts["perm.find_isomorphism_calls"] += 1
    elif name == "groupoid.hom_groupoid":
        counts["groupoid.components"] += result.component_count()
    elif name == "gset.classify_torsors":
        counts["gset.torsor_classes"] += len(result)


def self_times(spans) -> dict[str, float]:
    """Total self time per span name.

    ``spans`` is a list of (name, start, end, parent index or -1); the
    self time of a span is its duration minus the durations of the spans
    whose parent it is.
    """
    child_total = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_total[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        out[name] += (end - start) - child_total[i]
    return dict(out)


def _resolve(module: str, path: str):
    obj = sys.modules[module]
    owner = None
    for part in path.split("."):
        owner, obj = obj, getattr(obj, part)
    return owner, path.split(".")[-1], obj


class _Patches:
    """Rebinds names and puts the originals back on ``undo``."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace_everywhere(self, original, wrapper) -> None:
        for modname, mod in list(sys.modules.items()):
            if not (modname == "galcalc" or modname.startswith("galcalc.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, attr, wrapper)

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Tracer:
    """Records spans and counts at the wrapped boundaries, per case."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.active = False
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.catalogue_groups: dict[int, object] = {}
        self._stack: list[int] = []
        self._patches = _Patches()

    def install(self) -> None:
        from galcalc.errors import CosetLimitExceeded

        for name, module, path in WRAPPED:
            owner, attr, original = _resolve(module, path)
            wrapper = self._wrap(name, original, CosetLimitExceeded)
            if isinstance(owner, type):
                self._patches.set(owner, attr, wrapper)
            else:
                self._patches.replace_everywhere(original, wrapper)

    def uninstall(self) -> None:
        self._patches.undo()

    def start_case(self) -> None:
        self.spans = []
        self._stack = []
        self.active = True

    def end_case(self) -> list[tuple[str, float, float, int]]:
        self.active = False
        return self.spans

    def groups_enumerated(self) -> int:
        """Catalogue groups handed out whose element lists were built."""
        return sum(
            1 for g in self.catalogue_groups.values() if g._elements is not None
        )

    def _wrap(self, name, fn, limit_error):
        perf = self.clock
        tracer = self
        counts = self.counts

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            spans, stack = tracer.spans, tracer._stack
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except limit_error:
                if name == "fp.coset_enumeration":
                    counts["fp.coset_enumeration_calls"] += 1
                    counts["fp.coset_limit_hits"] += 1
                raise
            finally:
                spans[idx] = (name, start, perf(), parent)
                stack.pop()
            if name == "catalogue.catalogue_group":
                tracer.catalogue_groups[id(result)] = result
            else:
                _count_result(counts, name, result)
            return result

        return wrapper


class ProductCounter:
    """Counts Perm multiplications; used in a pass whose times are dropped."""

    def __init__(self):
        self.products = 0
        self._patches = _Patches()

    def install(self) -> None:
        from galcalc.perm import Perm

        original = Perm.__mul__
        counter = self

        def counting_mul(a, b):
            counter.products += 1
            return original(a, b)

        self._patches.set(Perm, "__mul__", counting_mul)

    def uninstall(self) -> None:
        self._patches.undo()
