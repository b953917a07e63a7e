"""Tracing from outside the program: spans around ftk's layer boundaries.

``install`` wraps the public functions of each ftk module, plus the
series methods they rest on, by patching every name under which ftk looks
them up: module attributes (ftk.cli and ftk.semidirect import names
directly, ftk.oracles imports inside its functions) and class attributes
for methods.  Each call records a span (name, start, end, parent, size)
in flat arrays.  Field operations last microseconds, so they are only
counted.  ``layer_metrics`` derives self times and counts from the spans.
"""

from __future__ import annotations

import gzip
import statistics
import sys
import time
from array import array

# span name -> (owner path, attribute).  The owner is a module or a class;
# a function is patched under every module attribute bound to it.
SPANS = {
    "parse.parse_series": ("ftk.parse", "parse_series"),
    "parse.parse_field_elem": ("ftk.parse", "parse_field_elem"),
    "series.mul": ("ftk.series.LaurentSeries", "__mul__"),
    "series.add": ("ftk.series.LaurentSeries", "__add__"),
    "series.invert": ("ftk.series.LaurentSeries", "invert"),
    "series.nth_root_unit": ("ftk.series.LaurentSeries", "nth_root_unit"),
    "series.scale_substitute": ("ftk.series.LaurentSeries", "scale_substitute"),
    "series.solve_positive": ("ftk.series.LaurentSeries", "solve_positive"),
    "series.split_parts": ("ftk.series.LaurentSeries", "split_parts"),
    "series.series_pth_power": ("ftk.series.LaurentSeries", "series_pth_power"),
    "artin_schreier.canonicalize": ("ftk.artin_schreier", "_canonicalize_with_witness"),
    "artin_schreier.as_canonicalize": ("ftk.artin_schreier", "as_canonicalize"),
    "artin_schreier.as_iso_witness": ("ftk.artin_schreier", "as_iso_witness"),
    "artin_schreier.enumerate_as_classes": ("ftk.artin_schreier", "enumerate_as_classes"),
    "artin_schreier.elemab_canonicalize": ("ftk.artin_schreier", "elemab_canonicalize"),
    "artin_schreier.elemab_iso_witness": ("ftk.artin_schreier", "elemab_iso_witness"),
    "artin_schreier.elemab_enumerate": ("ftk.artin_schreier", "elemab_enumerate"),
    "kummer.canonicalize": ("ftk.kummer", "kummer_canonicalize"),
    "kummer.iso_witness": ("ftk.kummer", "kummer_iso_witness"),
    "kummer.enumerate_kummer_classes": ("ftk.kummer", "enumerate_kummer_classes"),
    "semidirect.enumerate_g_torsors": ("ftk.semidirect", "enumerate_g_torsors"),
    "semidirect.phi_apply": ("ftk.semidirect", "phi_apply"),
    "semidirect.zphi_solve": ("ftk.semidirect", "zphi_solve"),
    "semidirect.vn_check": ("ftk.semidirect", "vn_check"),
    "semidirect.reduce_to_coprime": ("ftk.semidirect", "reduce_to_coprime"),
    "oracles.as_bruteforce_class_count": ("ftk.oracles", "as_bruteforce_class_count"),
    "oracles.kummer_bruteforce_class_count": ("ftk.oracles", "kummer_bruteforce_class_count"),
    "oracles.semidirect_bruteforce": ("ftk.oracles", "semidirect_bruteforce"),
    "oracles.double_frame_bruteforce": ("ftk.oracles", "double_frame_bruteforce"),
    "groupoids.bg": ("ftk.groupoids", "bg"),
    "groupoids.rigidify": ("ftk.groupoids", "rigidify"),
    "groupoids.groupoid_mass": ("ftk.groupoids", "groupoid_mass"),
    "groupoids.colim_fiber_product_check": ("ftk.groupoids", "colim_fiber_product_check"),
    "cli.main": ("ftk.cli", "main"),
    "parallel.parallel_map": ("ftk.parallel", "parallel_map"),
}
# field operations, counted only: name -> attributes of FqElem
COUNTS = {
    "fields.mul.calls": ("__mul__", "__rmul__"),
    "fields.inv.calls": ("inverse",),
    "fields.pow.calls": ("__pow__",),
}
# the function parallel_map is handed runs semidirect code
MAPPED = "semidirect.classes_at"


def _owner(path: str):
    mod, _, rest = path.partition(".")
    obj = sys.modules[mod]
    for part in rest.split("."):
        if part:
            mod = f"{mod}.{part}"
            obj = sys.modules[mod] if mod in sys.modules else getattr(obj, part)
    return obj


SIZED_BY_RESULT = ("artin_schreier.elemab_enumerate", "semidirect.enumerate_g_torsors",
                   "parallel.parallel_map")


class Tracer:
    def __init__(self):
        self.names: list = []
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.size = array("q")  # mul: product of operand lengths; else result length
        self.width = array("q")  # mul, add: sum of operand lengths
        self.stack = [-1]
        self.counts = {k: [0] for k in COUNTS}
        self.patches: list = []  # (owner, attribute, original, wrapper)

    def _id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn):
        nid = self._id(name)
        names, parents, starts, ends, sizes, stack = (
            self.name, self.parent, self.start, self.end, self.size, self.stack)
        clock = time.perf_counter
        widths = self.width
        is_mul = name == "series.mul"
        is_add = name == "series.add"
        sized_result = name in SIZED_BY_RESULT
        is_map = name == "parallel.parallel_map"
        tracer = self

        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            if is_mul or is_add:
                la, lb = len(args[0].coeffs), len(args[1].coeffs)
                sizes.append(la * lb if is_mul else 0)
                widths.append(la + lb)
            else:
                sizes.append(0)
                widths.append(0)
            ends.append(0.0)
            stack.append(i)
            if is_map:
                args = (tracer.wrap(MAPPED, args[0]),) + args[1:]
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if sized_result:
                sizes[i] = len(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Patch ftk in place; call after every ftk module is imported.
        The first call builds the wrappers; later calls reuse them."""
        if not self.patches:
            self._build_patches()
        for owner, attr, _, wrapped in self.patches:
            setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, original, _ in self.patches:
            setattr(owner, attr, original)

    def _build_patches(self):
        modules = [m for n, m in sys.modules.items() if n == "ftk" or n.startswith("ftk.")]
        for name, (path, attr) in SPANS.items():
            owner = _owner(path)
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original)
            if isinstance(owner, type):
                self.patches.append((owner, attr, original, wrapped))
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self.patches.append((mod, key, original, wrapped))
        elem = _owner("ftk.fields.FqElem")
        for metric, attrs in COUNTS.items():
            cell = self.counts[metric]
            for attr in attrs:
                original = getattr(elem, attr)
                self.patches.append((elem, attr, original, _counted(original, cell)))

    def mark(self) -> tuple:
        return len(self.start), {k: c[0] for k, c in self.counts.items()}

    def dump(self, path: str):
        """Write every span as 'name<TAB>start<TAB>end<TAB>parent<TAB>size'."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\tsize\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\t"
                         f"{self.parent[i]}\t{self.size[i]}\n")

    def layer_metrics(self, lo: tuple, hi: tuple) -> dict:
        """Per-layer metrics for the spans recorded between two marks."""
        first, last = lo[0], hi[0]
        names = [self.names[self.name[i]] for i in range(first, last)]
        layer = [n.partition(".")[0] for n in names]
        dur = [self.end[i] - self.start[i] for i in range(first, last)]
        par = [self.parent[i] - first if self.parent[i] >= first else -1 for i in range(first, last)]
        child = [0.0] * len(names)
        for j, pj in enumerate(par):
            if pj >= 0:
                child[pj] += dur[j]
        own = [d - c for d, c in zip(dur, child)]
        # flags inherited along parent links (parents precede children)
        under_oracle = [False] * len(names)
        under_root = [False] * len(names)
        for j, pj in enumerate(par):
            if pj >= 0:
                under_oracle[j] = under_oracle[pj] or layer[pj] == "oracles"
                under_root[j] = under_root[pj] or names[pj] == "series.nth_root_unit"
        top = [pj < 0 or layer[pj] != layer[j] for j, pj in enumerate(par)]

        def total(pred, values):
            return sum(v for j, v in enumerate(values) if pred(j))

        def count(pred):
            return sum(1 for j in range(len(names)) if pred(j))

        def named(n):
            return lambda j: names[j] == n

        def in_layer(lay):
            return lambda j: layer[j] == lay

        size = [self.size[i] for i in range(first, last)]
        mul_calls = count(named("series.mul"))
        add_calls = count(named("series.add"))
        widths = sum(self.width[first:last])
        candidates = total(named("artin_schreier.elemab_enumerate"),
                           [s if par[j] >= 0 and layer[par[j]] == "semidirect" else 0
                            for j, s in enumerate(size)])
        classes = total(named("semidirect.enumerate_g_torsors"), size)
        m = {
            "fields.mul.calls": hi[1]["fields.mul.calls"] - lo[1]["fields.mul.calls"],
            "fields.inv.calls": hi[1]["fields.inv.calls"] - lo[1]["fields.inv.calls"],
            "fields.pow.calls": hi[1]["fields.pow.calls"] - lo[1]["fields.pow.calls"],
            "series.mul.calls": mul_calls,
            "series.mul.terms": total(named("series.mul"), size),
            "series.mul.self_s": total(named("series.mul"), own),
            "series.invert.calls": count(named("series.invert")),
            "series.newton_steps": count(lambda j: names[j] == "series.invert" and under_root[j]),
            "series.nth_root_unit.s": total(named("series.nth_root_unit"), dur),
            "series.scale_substitute.calls": count(named("series.scale_substitute")),
            "series.scale_substitute.self_s": total(named("series.scale_substitute"), own),
            "series.solve_positive.self_s": total(named("series.solve_positive"), own),
            "series.add.calls": add_calls,
            "series.add.self_s": total(named("series.add"), own),
            "series.window_mean": widths / (2 * (mul_calls + add_calls) or 1),
            "parse.calls": count(in_layer("parse")),
            "parse.self_ms": 1e3 * total(in_layer("parse"), own),
            "artin_schreier.canonicalize.calls": count(named("artin_schreier.canonicalize")),
            "artin_schreier.self_s": total(in_layer("artin_schreier"), own),
            "kummer.canonicalize.s": total(named("kummer.canonicalize"), dur),
            "kummer.iso_witness.s": total(named("kummer.iso_witness"), dur),
            "semidirect.candidates": candidates,
            "semidirect.classes": classes,
            "semidirect.yield": classes / candidates if candidates else 0.0,
            "semidirect.self_s": total(in_layer("semidirect"), own),
            "semidirect.vn_check.calls": count(named("semidirect.vn_check")),
            "oracles.s": total(lambda j: layer[j] == "oracles" and top[j], dur),
            "oracles.self_s": total(in_layer("oracles"), own),
            "oracles.series_calls": count(lambda j: layer[j] == "series" and under_oracle[j]),
            "groupoids.s": total(lambda j: layer[j] == "groupoids" and top[j], dur),
            "cli.self_ms": 1e3 * total(in_layer("cli"), own),
            "parallel.items": total(named("parallel.parallel_map"), size),
            "parallel.self_s": total(in_layer("parallel"), own),
        }
        return m


def _counted(fn, cell):
    def wrapper(*args):
        cell[0] += 1
        return fn(*args)

    wrapper.__wrapped__ = fn
    return wrapper


def median_metrics(per_pass: list) -> dict:
    """Each metric's median over the traced passes (the lower middle value,
    so that counts stay whole)."""
    return {k: statistics.median_low(p[k] for p in per_pass) for k in per_pass[0]}
