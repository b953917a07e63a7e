import ast
import gc
import random
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import ftk
import ftk.oracles
import schoolbook
from ftk.artin_schreier import as_canonicalize
from ftk.errors import DomainError, NotInvertible
from ftk import fields as fields_mod
from ftk.fields import (
    MAX_DEGREE,
    MAX_TABLE_Q,
    FieldSpec,
    FqElem,
    _RingElem,
    _field_tables,
    _is_prime,
    as_residue_solve,
    canonical_nth_root,
    field,
    nth_power_class,
    nth_roots_of_unity,
    test_ring as local_test_ring,
)
from ftk.parse import parse_series
from ftk.series import LaurentSeries


def test_field_answers_the_ring_protocol():
    F9 = field(3, 2)
    R = local_test_ring(3, 2, 2)
    g = F9.gen()
    assert F9.base is F9 and R.base is F9
    assert F9.p == R.p == 3
    assert F9.from_field(g) is g
    assert g.residue() is g
    assert R.from_field(g).residue() == g
    assert g.is_unit() and not F9.zero().is_unit()
    with pytest.raises(DomainError, match="mixed arithmetic"):
        R.from_field(field(3).one())


@pytest.mark.parametrize("ring", [field(3, 2), field(2, 3), local_test_ring(3, 2, 2), local_test_ring(5, 1, 3)])
def test_digit_rows_are_fp_linear(ring):
    # Newton negates and scales digit rows: digitwise mod p, that is the
    # element's negative and integer multiple for both ring kinds
    p = ring.p
    for x in ring.elements()[:60]:
        row = x.coords
        assert ring.from_digits(row) == x
        assert ring.from_digits(tuple(-d % p for d in row)) == -x
        assert ring.from_digits(tuple(2 * d % p for d in row)) == x.scale(2)


def test_no_module_asks_for_attributes_by_hasattr():
    for path in sorted(Path(ftk.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "hasattr"
        ]
        assert calls == [], f"{path.name} calls hasattr at lines {calls}"


def test_only_fields_builds_elements_from_rows():
    # the digit-row layout stays inside fields.py: every other module
    # builds elements through the spec (from_digits, from_index, ...)
    for path in sorted(Path(ftk.__file__).parent.glob("*.py")):
        if path.name == "fields.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _name(node.func) in {"FqElem", "TestRingElem"}
        ]
        assert calls == [], f"{path.name} constructs ring elements at lines {calls}"


def test_only_series_builds_series_from_rows():
    # the window layout stays behind the series type: only series.py calls
    # the LaurentSeries constructor, every other module goes through
    # of_rows, make and the like, and only series.py and artin_schreier.py
    # read a series' digit rows
    for path in sorted(Path(ftk.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        nodes = list(ast.walk(tree))
        builds = [n.lineno for n in nodes if isinstance(n, ast.Call) and _name(n.func) == "LaurentSeries"]
        reads = [n.lineno for n in nodes if isinstance(n, ast.Attribute) and n.attr == "rows"]
        if path.name != "series.py":
            assert builds == [], f"{path.name} calls the LaurentSeries constructor at lines {builds}"
        if path.name not in {"series.py", "artin_schreier.py"}:
            assert reads == [], f"{path.name} reads series rows at lines {reads}"


def test_oracles_import_no_path_they_check():
    # an oracle that called the Artin-Schreier or Kummer paths, or the
    # semidirect enumeration, would check them against itself; only the
    # F_p matrix helpers may come from semidirect
    tree = ast.parse(Path(ftk.oracles.__file__).read_text(encoding="utf-8"))
    imported = set()  # (module, name), name "*" for a whole module
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(alias.name.split(".")[-1], "*") for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")[-1]
            for alias in node.names:
                imported |= {(module, alias.name)} if module not in {"", "ftk"} else {(alias.name, "*")}
    allowed = {("semidirect", name) for name in ("mat_identity", "mat_mul", "mat_pow")}
    checked = {item for item in imported if item[0] in {"artin_schreier", "kummer", "semidirect"}}
    assert checked <= allowed, f"oracles.py imports {sorted(checked - allowed)}"


def _functions_named(tree, name, scope=()):
    """The scopes (enclosing function names) of every function called name."""
    found = []
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name == name:
                found.append(scope)
            inner = scope + (node.name,)
        found += _functions_named(node, name, inner)
    return found


def test_one_union_find_and_one_map_type():
    # the union-find is groupoids._union_classes alone, and the oracles'
    # frame maps are tuples of AffineMap, with no second map class
    finds = [
        (path.name, scope)
        for path in sorted(Path(ftk.__file__).parent.glob("*.py"))
        for scope in _functions_named(ast.parse(path.read_text(encoding="utf-8")), "find")
    ]
    assert finds == [("groupoids.py", ("_union_classes",))], f"union-find code at {finds}"
    tree = ast.parse(Path(ftk.oracles.__file__).read_text(encoding="utf-8"))
    map_classes = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and (
            node.name.endswith("Map")
            or any(
                isinstance(item, ast.FunctionDef) and item.name in {"key", "is_identity"}
                for item in node.body
            )
        )
    ]
    assert map_classes == ["AffineMap"], f"oracles.py defines map classes {map_classes}"


def _name(node):
    return node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None


def test_oracles_keep_no_state_across_calls():
    # a table that outlived its call would let a repeated oracle call read
    # earlier answers: no dict, list or set at module or class level, and
    # no memoising decorator
    tree = ast.parse(Path(ftk.oracles.__file__).read_text(encoding="utf-8"))
    literals = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
    constructors = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter"}
    bodies = [tree.body] + [node.body for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    stores = [
        node.lineno
        for body in bodies
        for node in body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        and (
            isinstance(node.value, literals)
            or isinstance(node.value, ast.Call) and _name(node.value.func) in constructors
        )
    ]
    assert stores == [], f"oracles.py keeps a container at module or class level, lines {stores}"
    caches = [
        node.lineno
        for node in ast.walk(tree)
        if _name(node) in {"cache", "lru_cache", "cached_property"}
        or isinstance(node, ast.alias) and node.name in {"cache", "lru_cache", "cached_property"}
    ]
    assert caches == [], f"oracles.py memoises at lines {caches}"


def _loops_over_homs_inside_loops(node, depth=0):
    """Line numbers of loops over ``homs.items()`` (or ``new_homs.items()``,
    For or comprehension) that run inside another loop."""

    def over_homs(it):
        return (
            isinstance(it, ast.Call)
            and isinstance(it.func, ast.Attribute)
            and it.func.attr == "items"
            and str(getattr(it.func.value, "id", getattr(it.func.value, "attr", ""))).endswith("homs")
        )

    found = []
    if isinstance(node, ast.For):
        if depth and over_homs(node.iter):
            found.append(node.lineno)
        found += _loops_over_homs_inside_loops(node.iter, depth)
        for child in node.body + node.orelse:
            found += _loops_over_homs_inside_loops(child, depth + 1)
    elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
        for gen in node.generators:
            if depth and over_homs(gen.iter):
                found.append(gen.iter.lineno)
            found += _loops_over_homs_inside_loops(gen.iter, depth)
            depth += 1
            for cond in gen.ifs:
                found += _loops_over_homs_inside_loops(cond, depth)
        for part in ("elt", "key", "value"):
            if getattr(node, part, None) is not None:
                found += _loops_over_homs_inside_loops(getattr(node, part), depth)
    else:
        for child in ast.iter_child_nodes(node):
            found += _loops_over_homs_inside_loops(child, depth)
    return found


def test_groupoids_pair_hom_sets_in_one_place():
    # composable pairs of hom-sets come from groupoids._composable alone:
    # no loop over homs.items() runs inside another loop
    tree = ast.parse(Path(ftk.groupoids.__file__).read_text(encoding="utf-8"))
    nested = _loops_over_homs_inside_loops(tree)
    assert nested == [], f"groupoids.py nests a loop over homs.items() at lines {nested}"


def test_modulus_choices_match_fixed_enumeration():
    # first irreducibles in base-p integer order
    assert field(2, 2).modulus == (1, 1, 1)  # g^2 + g + 1
    assert field(3, 2).modulus == (1, 0, 1)  # g^2 + 1
    assert field(2, 3).modulus == (1, 1, 0, 1)  # g^3 + g + 1


def test_frobenius_examples():
    assert field(2).one().frobenius() == field(2).one()
    F9 = field(3, 2)
    g = F9.gen()
    assert g.frobenius() == g.scale(2)  # g^3 = -g
    F3 = field(3)
    assert F3.from_int(2).frobenius() == F3.from_int(2)


def test_pth_root_examples():
    assert field(2).one().pth_root() == field(2).one()
    F4 = field(2, 2)
    g = F4.gen()
    assert (g * g).pth_root() == g
    F5 = field(5)
    assert F5.from_int(3).pth_root() == F5.from_int(3)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (3, 2), (5, 1), (2, 3)])
def test_perfectness_roundtrip(p, e):
    spec = field(p, e)
    for a in spec.elements():
        assert a.frobenius().pth_root() == a
        assert a.pth_root().frobenius() == a


def test_as_residue_solve_examples():
    F2 = field(2)
    assert sorted(u.index for u in as_residue_solve(F2.zero())) == [0, 1]
    assert as_residue_solve(F2.one()) == []
    F4 = field(2, 2)
    sols = as_residue_solve(F4.one())
    assert len(sols) == 2
    for u in sols:
        assert u * u - u == F4.one()


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_residue_solve_sizes(p, e):
    spec = field(p, e)
    with_solutions = 0
    for c in spec.elements():
        sols = as_residue_solve(c)
        assert len(sols) in (0, p)
        with_solutions += bool(sols)
    assert with_solutions == spec.q // p


def test_nth_power_class_examples():
    F5 = field(5)
    assert nth_power_class(F5.one(), 4) == 0
    assert nth_power_class(F5.from_int(2), 4) == 1
    F7 = field(7)
    assert nth_power_class(F7.from_int(6), 3) == 0
    with pytest.raises(DomainError):
        nth_power_class(F5.zero(), 4)


def test_nth_power_class_is_additive():
    rng = random.Random(5)
    for _ in range(100):
        p, e, n = [(5, 1, 4), (7, 1, 3), (2, 2, 3), (3, 2, 4)][rng.randrange(4)]
        spec = field(p, e)
        a = spec.from_index(rng.randrange(1, spec.q))
        b = spec.from_index(rng.randrange(1, spec.q))
        d = nth_power_class(a, n) + nth_power_class(b, n)
        import math

        assert nth_power_class(a * b, n) == d % math.gcd(n, spec.q - 1)


def test_wp_transversal_is_lex_smallest():
    F2 = field(2)
    reps = {F2.wp_transversal_rep(c).index for c in F2.elements()}
    assert reps == {0, 1}
    F4 = field(2, 2)
    # image of x^2 - x has index 2, so two cosets, reps are minima
    reps4 = {F4.wp_transversal_rep(c).index for c in F4.elements()}
    assert len(reps4) == 2
    assert 0 in reps4


def test_canonical_nth_root():
    F5 = field(5)
    r = canonical_nth_root(F5.from_int(4), 2)
    assert r * r == F5.from_int(4)
    assert r == F5.from_int(2)  # smallest of {2, 3}
    with pytest.raises(DomainError):
        canonical_nth_root(F5.from_int(2), 4)  # 2 is not a 4th power


SCAN_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (2, 8)]


@pytest.mark.parametrize("p, e", SCAN_FIELDS)
def test_canonical_nth_root_matches_the_scan(p, e):
    # the discrete-log solve against the smallest r with r^n = c, found by
    # raising every element to the n-th power
    spec = field(p, e)
    for n in range(1, 13):
        smallest = {}
        for r in spec.elements():
            smallest.setdefault(r**n, r)
        for c in spec.elements():
            if c in smallest:
                assert canonical_nth_root(c, n) == smallest[c]
            else:
                with pytest.raises(DomainError):
                    canonical_nth_root(c, n)


@pytest.mark.parametrize("p, e", SCAN_FIELDS)
def test_roots_of_unity_match_the_scan(p, e):
    spec = field(p, e)
    for n in range(1, 13):
        assert nth_roots_of_unity(spec, n) == schoolbook.nth_roots_of_unity(spec, n)


def test_roots_of_unity_counts():
    import math

    for p, e, n in [(5, 1, 4), (7, 1, 2), (2, 2, 3), (3, 1, 2)]:
        spec = field(p, e)
        assert len(nth_roots_of_unity(spec, n)) == math.gcd(n, spec.q - 1)


def _prime_power_list(limit):
    return [(p, e) for p in range(2, limit + 1) if _is_prime(p) for e in range(1, 10) if p**e <= limit]


@pytest.mark.parametrize("p, e", _prime_power_list(512))
def test_tables_match_the_schoolbook_build(p, e):
    # generator, dlog, wp preimages, transversal and powers, all equal
    spec = field(p, e)
    assert _field_tables(spec) == schoolbook.field_tables(spec)


@pytest.mark.parametrize("p, e", [(2, 8), (3, 5), (2, 10)], ids=["F256", "F243", "F1024"])
def test_table_build_is_linear_in_q(monkeypatch, p, e):
    # the schoolbook build spends about q^2/p additions on the transversal
    spec = field(p, e)
    counts = {"mul": 0, "add": 0}

    def counted(name, op):
        def wrapper(a, b):
            counts[name] += 1
            return op(a, b)

        return wrapper

    mul = counted("mul", FqElem.__mul__)
    monkeypatch.setattr(FqElem, "__mul__", mul)
    monkeypatch.setattr(FqElem, "__rmul__", mul)
    monkeypatch.setattr(FqElem, "__add__", counted("add", FqElem.__add__))
    monkeypatch.setattr(FqElem, "__sub__", counted("add", FqElem.__sub__))
    _field_tables.__wrapped__(spec)
    assert counts["mul"] <= 2 * spec.q
    assert counts["add"] <= e * spec.q


def test_tables_refuse_big_fields_before_building(monkeypatch):
    spec = field(2, 15)

    def refuse(*args):
        raise AssertionError("an element was built")

    for name in ("one", "zero", "from_int", "from_index", "elements"):
        monkeypatch.setattr(FieldSpec, name, refuse)
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match=f"q <= {MAX_TABLE_Q}, got q = 32768"):
            spec.generator
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


@pytest.mark.parametrize("p, e", _prime_power_list(512))
def test_element_maps_match_powering(p, e):
    spec = field(p, e)
    for a in spec.elements():
        assert a.frobenius() == schoolbook.fq_frobenius(a)
        assert a.pth_root() == schoolbook.fq_pth_root(a)
        if not a.is_zero():
            assert a.inverse() == schoolbook.fq_inverse(a)


@pytest.mark.parametrize("p, e", [(2**31 - 1, 1), (2, 20), (3, 13)], ids=["Fp31", "F2^20", "F3^13"])
def test_element_maps_match_powering_without_tables(p, e):
    # fields too large for tables: the maps must neither refuse nor differ
    spec = field(p, e)
    rng = random.Random(p + e)
    for idx in [1, 2, min(p, spec.q - 1), spec.q - 1] + [rng.randrange(1, spec.q) for _ in range(60)]:
        a = spec.from_index(idx)
        assert a.frobenius() == schoolbook.fq_frobenius(a)
        assert a.pth_root() == schoolbook.fq_pth_root(a)
        assert a.inverse() == schoolbook.fq_inverse(a)


def _count_pow(monkeypatch):
    """Patch _RingElem.__pow__ to record its exponents; returns the record."""
    calls = []
    power = _RingElem.__pow__

    def counted(a, n):
        calls.append(n)
        return power(a, n)

    monkeypatch.setattr(_RingElem, "__pow__", counted)
    return calls


@pytest.mark.parametrize("p, e", [(2, 8), (3, 5), (2**31 - 1, 1)], ids=["F256", "F243", "Fp31"])
def test_element_maps_make_no_pow_calls(monkeypatch, p, e):
    spec = field(p, e)
    elems = [spec.from_index(i) for i in (1, 2, p - 1, spec.q - 1, spec.q // 3)]

    def apply_maps():
        for a in elems:
            for f in (FqElem.inverse, FqElem.frobenius, FqElem.pth_root):
                f(a)

    apply_maps()  # warm-up: the cached Frobenius matrices exist after it
    calls = _count_pow(monkeypatch)
    apply_maps()
    assert calls == []


def test_as_canonicalize_makes_no_pow_calls(monkeypatch):
    F256 = field(2, 8)
    coeffs = {-24: F256.from_index(0x53), -8: F256.from_index(0xCA), 0: F256.from_index(7)}
    coeffs.update({s: F256.from_index((37 * s + 11) % 256) for s in range(1, 41)})
    b = LaurentSeries.from_dict(F256, coeffs, 41)
    expected = as_canonicalize(b)  # warm-up: field tables and matrices
    calls = _count_pow(monkeypatch)
    assert as_canonicalize(b) == expected
    assert calls == []


def test_solve_positive_on_a_zero_window_does_no_field_operation(monkeypatch):
    F256 = field(2, 8)
    b = LaurentSeries.zero(F256, 64)

    def refuse(*args):
        raise AssertionError("a field operation ran")

    for name in ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__pow__", "frobenius", "inverse"):
        monkeypatch.setattr(FqElem, name, refuse)
    assert b.solve_positive() == b


def _count_constructions(monkeypatch):
    """Patch the element constructor to count new field and test-ring
    elements; returns the count."""
    count = [0]
    init = _RingElem.__init__

    def counted(self, *args):
        count[0] += 1
        init(self, *args)

    monkeypatch.setattr(_RingElem, "__init__", counted)
    return count


def test_zero_is_shared():
    for spec in (field(2, 8), field(5), local_test_ring(3, 2, 2)):
        assert spec.zero() is spec.zero()


# table-sized fields up to q = 2^14 = MAX_TABLE_Q (a prime q next to it
# too), and the five rings of test_ring_layout
SHARED_RINGS = [
    field(p, e)
    for p, e in ((2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 3), (2, 4), (5, 2), (3, 3), (2, 8), (2, 14), (16381, 1))
] + [local_test_ring(p, e, m) for p, e, m in ((5, 1, 2), (3, 1, 3), (2, 2, 2), (7, 1, 2), (2, 1, 4))]


@pytest.mark.parametrize("ring", SHARED_RINGS, ids=repr)
def test_from_digits_shares_one_element_per_row(ring):
    size = ring.base.q**ring.m
    assert size <= MAX_TABLE_Q
    indices = range(size) if size <= 512 else [0] + random.Random(size).sample(range(1, size), 511)
    assert ring.from_digits((0,) * len(ring.zero().coords)) is ring.zero()
    for i in indices:
        x = ring.from_index(i)
        a = ring.from_digits(tuple(list(x.coords)))  # a row object of its own
        assert a == x and a.index == i
        assert ring.from_digits(tuple(list(x.coords))) is a


@pytest.mark.parametrize("spec", [field(2, 20), field(2**31 - 1), field(2, 14)], ids=repr)
def test_only_a_table_sized_field_keeps_its_elements(spec):
    # parse two windows of 4096 distinct coefficients each and drop them.
    # F_2^20 and F_(2^31-1) keep no table: under 64 KB is still held.  F_2^14
    # (q = MAX_TABLE_Q) keeps its 8192 shared elements, megabytes, so the
    # measure sees a table.  The texts are rendered from elements built by
    # from_index, which leaves the shared table empty
    texts = [
        " + ".join(f"({spec.from_index(4096 * j + k + 1)})*t^{k}" for k in range(4096))
        for j in range(2)
    ]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for text in texts:
            assert len(parse_series(text, spec, 4096).support()) == 4096
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert (held > 64 * 1024) == (spec.q <= MAX_TABLE_Q), held


def test_zero_windows_build_no_element(monkeypatch):
    F256, R = field(2, 8), local_test_ring(3, 2, 2)
    windows = [[spec.zero()] * 256 for spec in (F256, R)]
    series = [LaurentSeries.zero(F256, 256), LaurentSeries.zero(R, 256)]

    def combine():
        for zeros in windows:
            assert [a + b for a, b in zip(zeros, zeros)] == zeros
            assert [a - b for a, b in zip(zeros, zeros)] == zeros
            assert [-a for a in zeros] == zeros
        for z in series:
            assert z + z == z - z == -z == z

    combine()  # warm-up
    count = _count_constructions(monkeypatch)
    combine()
    assert count[0] == 0


def test_as_canonicalize_builds_few_elements(monkeypatch):
    # the series of test_as_canonicalize_makes_no_pow_calls; before the zero
    # short-circuits and the one-list witness this built 312 elements
    F256 = field(2, 8)
    coeffs = {-24: F256.from_index(0x53), -8: F256.from_index(0xCA), 0: F256.from_index(7)}
    coeffs.update({s: F256.from_index((37 * s + 11) % 256) for s in range(1, 41)})
    b = LaurentSeries.from_dict(F256, coeffs, 41)
    expected = as_canonicalize(b)  # warm-up: field tables and matrices
    count = _count_constructions(monkeypatch)
    assert as_canonicalize(b) == expected
    assert count[0] <= 64


def test_as_canonicalize_of_a_positive_series_negates_nothing(monkeypatch):
    # the witness is -u_+, which positive_rows(negated=True) computes as
    # v_s = v_{s/p}^p + b_s; negating u_+ negated b_s and then u_s again
    F5 = field(5)
    b = LaurentSeries.from_dict(F5, {s: F5.from_int(s % 4 + 1) for s in (1, 2, 5, 7, 10, 25)}, 40)
    expected = as_canonicalize(b)
    calls = [0]
    real = FqElem.__neg__

    def counted(self):
        calls[0] += 1
        return real(self)

    monkeypatch.setattr(FqElem, "__neg__", counted)
    assert as_canonicalize(b) == expected
    assert calls[0] == 0


@pytest.mark.parametrize("p, e, m", [(3, 1, 2), (2, 1, 4), (5, 1, 4), (3, 2, 3), (2, 8, 2)])
def test_test_ring_frobenius_makes_no_field_multiplication(monkeypatch, p, e, m):
    R = local_test_ring(p, e, m)
    elems = [R.one() + R.x(), R.from_index(R.base.q**m - 1), R.from_index(R.base.q + 2)]
    expected = [a**p for a in elems]
    assert [a.frobenius() for a in elems] == expected  # warm-up: the matrices

    def refuse(*args):
        raise AssertionError("a field multiplication ran")

    monkeypatch.setattr(FqElem, "__mul__", refuse)
    monkeypatch.setattr(FqElem, "__rmul__", refuse)
    assert [a.frobenius() for a in elems] == expected


def _iter_prime_powers(bound):
    for q in range(2, bound + 1):
        p = next(d for d in range(2, q + 1) if q % d == 0)
        e = 0
        while q % p == 0:
            q //= p
            e += 1
        if q == 1:
            yield p, e


def test_modulus_search_matches_trial_division():
    # Ben-Or's test picks the same modulus as trial division for every
    # prime power q <= 2^14
    cases = list(_iter_prime_powers(2**14))
    assert len(cases) == 1961
    for p, e in cases:
        assert fields_mod._smallest_irreducible(p, e) == schoolbook.smallest_irreducible(p, e), (p, e)


@pytest.mark.parametrize("p, e", [(10007, 32), (1000003, 16)])
def test_modulus_search_skips_the_reducible_binomials(p, e):
    # with 4 | e and p = 3 mod 4 no binomial x^e + c is irreducible; the
    # search took 8.5 s for F_{10007^32} and over 60 s for F_{1000003^16}
    # when it tested them one by one, and takes about 1 s with the skip on
    # a 2-core x86-64 host
    t0 = time.perf_counter()
    modulus = fields_mod._smallest_irreducible(p, e)
    assert time.perf_counter() - t0 < 5
    assert modulus[1:-1] != (0,) * (e - 1) and fields_mod._poly_is_irreducible(modulus, p)


@given(st.integers(0, 10**5))
def test_primality_matches_trial_division(n):
    assert _is_prime(n) == schoolbook.is_prime(n)


# strong pseudoprimes to the bases 2 .. 7 and 2 .. 23, a Mersenne prime,
# the largest prime below 2^64 and 2^64 - 1
@pytest.mark.parametrize(
    "n, prime",
    [(3215031751, False), (3825123056546413051, False), (2**61 - 1, True), (2**64 - 59, True), (2**64 - 1, False)],
)
def test_primality_past_trial_division(n, prime):
    assert _is_prime(n) == prime


def test_large_prime_field_is_built_at_once():
    t0 = time.perf_counter()
    spec = field.__wrapped__(2**61 - 1)
    assert time.perf_counter() - t0 < 0.25
    assert spec.modulus == (0, 1)


def test_characteristic_bound_refused_before_the_primality_test(monkeypatch):
    def refuse(n):
        raise AssertionError("the primality test ran")

    monkeypatch.setattr(fields_mod, "_is_prime", refuse)
    for p in (2**64, 2**64 + 13, 10**30):
        with pytest.raises(DomainError, match=f"p < 2\\^64, got a {p.bit_length()}-bit p"):
            field.__wrapped__(p)


def test_degree_bound_refused_before_the_search(monkeypatch):
    def refuse(*args):
        raise AssertionError("the modulus search ran")

    monkeypatch.setattr(fields_mod, "_smallest_irreducible", refuse)
    for e in (MAX_DEGREE + 1, 10**9):
        with pytest.raises(DomainError, match=f"e <= {MAX_DEGREE}, got e = {e}"):
            field.__wrapped__(2, e)


def test_largest_degree_is_found_at_once():
    t0 = time.perf_counter()
    spec = field(2, MAX_DEGREE)
    assert time.perf_counter() - t0 < 1
    assert len(spec.modulus) == MAX_DEGREE + 1 and fields_mod._poly_is_irreducible(spec.modulus, 2)


def test_field_division():
    F7 = field(7)
    for a in F7.elements():
        if a.is_zero():
            with pytest.raises(NotInvertible):
                a.inverse()
        else:
            assert a * a.inverse() == F7.one()


class TestTestRing:
    def test_unit_nilpotent_partition(self):
        for p, e, m in [(2, 1, 2), (3, 1, 2), (2, 2, 2), (2, 1, 4)]:
            R = local_test_ring(p, e, m)
            for a in R.elements():
                if a.is_unit():
                    assert a * a.inverse() == R.one()
                else:
                    assert (a**m).is_zero()

    def test_nilpotent_power_vanishes(self):
        R = local_test_ring(2, 1, 3)
        x = R.x()
        assert not (x * x).is_zero()
        assert (x * x * x).is_zero()

    def test_unit_inverse(self):
        rng = random.Random(11)
        R = local_test_ring(3, 1, 3)
        for _ in range(50):
            a = R.from_index(rng.randrange(27))
            if a.is_unit():
                assert a * a.inverse() == R.one()
            else:
                with pytest.raises(NotInvertible):
                    a.inverse()

    def test_m_bound(self):
        with pytest.raises(DomainError):
            local_test_ring(2, 1, 5)

    def test_frobenius_additive(self):
        R = local_test_ring(2, 1, 4)
        rng = random.Random(3)
        for _ in range(30):
            a = R.from_index(rng.randrange(16))
            b = R.from_index(rng.randrange(16))
            assert (a + b).frobenius() == a.frobenius() + b.frobenius()
