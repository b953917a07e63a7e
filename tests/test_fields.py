import ast
import functools
import gc
import itertools
import math
import random
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import ftk
import ftk.oracles
import ftk.series
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
    _basis_traces,
    _field_tables,
    _is_prime,
    _trace_rep,
    _apply_rows,
    _poly_mod,
    _poly_mul,
    _poly_powmod,
    canonical_nth_root,
    canonical_wp_shift,
    field,
    mat_kernel,
    mat_mul,
    mat_pow,
    mul_matrix,
    nth_power_class,
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


def test_only_artin_schreier_reads_the_census_options():
    # the option records of census_grid stay inside artin_schreier.py:
    # every other module takes the census as rows or as text pieces
    # (as_class_grid), so no other module names census_grid or grid_breaks
    names = {"census_grid", "grid_breaks"}
    for path in sorted(Path(ftk.__file__).parent.glob("*.py")):
        if path.name == "artin_schreier.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found = [
            node.lineno
            for node in ast.walk(tree)
            if _name(node) in names or isinstance(node, ast.ImportFrom) and names & {a.name for a in node.names}
        ]
        assert found == [], f"{path.name} names the census options at lines {found}"


def test_only_power_squares_and_multiplies():
    # one square and multiply in the library: no function but fields.power
    # halves an exponent (>>= 1) or walks the bits of bin(n)
    found = []
    for path in sorted(Path(ftk.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if (path.name, fn.name) == ("fields.py", "power"):
                continue
            for node in ast.walk(fn):
                if (
                    isinstance(node, ast.AugAssign)
                    and isinstance(node.op, ast.RShift)
                    and isinstance(node.value, ast.Constant)
                    and node.value.value == 1
                ):
                    found.append(f"{path.name}:{node.lineno} {fn.name} halves an exponent")
                if isinstance(node, (ast.For, ast.comprehension)) and any(
                    isinstance(call, ast.Call) and _name(call.func) == "bin" for call in ast.walk(node.iter)
                ):
                    found.append(f"{path.name}:{node.iter.lineno} {fn.name} loops over bin(...)")
    assert found == []


def test_series_arithmetic_reads_no_elements():
    # series.py computes on rows: it never reads a window's elements through
    # .coeffs, and only from_dict, which takes a dict of elements, calls make
    tree = ast.parse(Path(ftk.series.__file__).read_text(encoding="utf-8"))
    reads = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr == "coeffs"]
    assert reads == [], f"series.py reads .coeffs at lines {reads}"
    callers = [
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        and any(isinstance(call, ast.Call) and _name(call.func) == "make" for call in ast.walk(fn))
    ]
    assert callers == ["from_dict"], f"series.py calls make in {callers}"


def test_oracles_import_no_path_they_check():
    # an oracle that called the Artin-Schreier or Kummer paths, or the
    # semidirect enumeration, would check them against itself; the F_p
    # matrix helpers come from fields
    tree = ast.parse(Path(ftk.oracles.__file__).read_text(encoding="utf-8"))
    imported = set()  # (module, name), name "*" for a whole module
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(alias.name.split(".")[-1], "*") for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")[-1]
            for alias in node.names:
                imported |= {(module, alias.name)} if module not in {"", "ftk"} else {(alias.name, "*")}
    checked = {item for item in imported if item[0] in {"artin_schreier", "kummer", "semidirect"}}
    assert checked == set(), f"oracles.py imports {sorted(checked)}"


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


def _is_smallest_wp_shift(c):
    # w^p - w = rep - c, and w is the smallest of the p solutions w + F_p
    spec = c.spec
    rep, w = canonical_wp_shift(c)
    shifts = [w + spec.from_int(k) for k in range(spec.p)]
    return w.frobenius() - w == rep - c and min(shifts, key=lambda u: u.index) == w


def test_as_residue_solve_examples():
    F2 = field(2)
    assert canonical_wp_shift(F2.zero()) == (F2.zero(), F2.zero())
    assert canonical_wp_shift(F2.one()) == (F2.one(), F2.zero())
    F4 = field(2, 2)
    rep, w = canonical_wp_shift(F4.one())
    assert rep.is_zero() and w * w - w == F4.one() and w.index == 2
    assert all(_is_smallest_wp_shift(c) for c in F4.elements())


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_residue_solve_sizes(p, e):
    # p representatives, each the shift target of q/p elements
    spec = field(p, e)
    reps = []
    for c in spec.elements():
        assert _is_smallest_wp_shift(c)
        reps.append(canonical_wp_shift(c)[0])
    assert sorted(reps.count(r) for r in set(reps)) == [spec.q // p] * p


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
    # canonical_nth_root reads the n-th roots of unity from the power table:
    # they are the d = gcd(n, q-1) powers h^(j (q-1)/d) of the generator h
    spec = field(p, e)
    order, powers = spec.q - 1, _field_tables(spec)[2]
    for n in range(1, 13):
        d = math.gcd(n, order)
        from_table = sorted((powers[j * (order // d)] for j in range(d)), key=lambda a: a.index)
        assert from_table == schoolbook.nth_roots_of_unity(spec, n)


def test_roots_of_unity_counts():
    for p, e, n in [(5, 1, 4), (7, 1, 2), (2, 2, 3), (3, 1, 2)]:
        spec = field(p, e)
        assert len(schoolbook.nth_roots_of_unity(spec, n)) == math.gcd(n, spec.q - 1)


def _prime_power_list(limit):
    return [(p, e) for p in range(2, limit + 1) if _is_prime(p) for e in range(1, 10) if p**e <= limit]


@pytest.mark.parametrize("p, e", _prime_power_list(512))
def test_tables_match_the_schoolbook_build(p, e):
    # generator, dlog and powers equal; the transversal and the smallest
    # wp preimage, which the library reads from the trace, equal the
    # reference's tables on every element
    spec = field(p, e)
    generator, dlog, preimages, transversal, powers = schoolbook.field_tables(spec)
    assert _field_tables(spec) == (generator, dlog, powers)
    for c in spec.elements():
        rep, w = canonical_wp_shift(c)
        assert rep == spec.wp_transversal_rep(c) == transversal[c.coords]
        assert w == min(preimages[(rep - c).coords], key=lambda u: u.index)


@pytest.mark.parametrize("p, e", [(2, 8), (3, 5), (2, 10)], ids=["F256", "F243", "F1024"])
def test_table_build_is_linear_in_q(monkeypatch, p, e):
    # the schoolbook build spends about q^2/p additions on its transversal
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


@given(st.sampled_from([2, 3, 5]), st.integers(0, 4), st.integers(1, 4), st.randoms(use_true_random=False))
def test_mat_kernel_is_every_relation_among_the_rows(p, n, width, rng):
    # the basis spans exactly the x with sum_i x[i] rows[i] = 0, counted by
    # walking all of F_p^n; entries past p and below 0 are read mod p
    rows = [[rng.randrange(-p, 2 * p) for _ in range(width)] for _ in range(n)]
    basis = mat_kernel(rows, p)

    def combine(x):
        return tuple(sum(c * row[k] for c, row in zip(x, rows)) % p for k in range(width))

    zero = (0,) * width
    for x in basis:
        assert len(x) == n and combine(x) == zero
    relations = sum(combine(x) == zero for x in itertools.product(range(p), repeat=n))
    assert relations == p ** len(basis)
    # independent: no nonzero combination of the basis vanishes
    combos = {tuple(sum(c * v[i] for c, v in zip(cs, basis)) % p for i in range(n))
              for cs in itertools.product(range(p), repeat=len(basis))}
    assert len(combos) == p ** len(basis)


@given(st.sampled_from([2, 3, 5]), st.integers(0, 4), st.integers(0, 2), st.integers(0, 4), st.randoms(use_true_random=False))
def test_mat_kernel_gives_one_relation_per_row_in_the_span(p, k, slack, later, rng):
    # the contract _wp_section relies on: k independent rows first, then
    # rows in their span; the relations come back one per later row, in
    # order, with coefficient 1 on that row and 0 on the other later rows.
    # The first rows are independent: on k random columns, the identity
    width = k + slack
    cols = rng.sample(range(width), k)
    first = [[int(i == cols.index(c)) if c in cols else rng.randrange(p) for c in range(width)] for i in range(k)]
    span = [[rng.randrange(p) for _ in range(k)] for _ in range(later)]
    rows = first + [list(_apply_rows(first, cs, p)) if k else [0] * width for cs in span]
    relations = mat_kernel(rows, p)
    assert len(relations) == later
    for a, x in enumerate(relations):
        assert x[k:] == tuple(int(b == a) for b in range(later))
        assert all(sum(c * row[i] for c, row in zip(x, rows)) % p == 0 for i in range(width))


@pytest.mark.parametrize("p, e", [(2, 1), (3, 1), (2, 3), (3, 2), (5, 2)])
def test_mul_matrix_applies_the_product(p, e):
    spec = field(p, e)
    for a in spec.elements():
        m = mul_matrix(a)
        for x in spec.elements():
            assert _apply_rows(m, x.coords, p) == (x * a).coords


def test_apply_rows_is_as_wide_as_the_rows():
    # sum_i coords[i] rows[i] by hand, for row lists that are not square
    rows = [[1, 2, 0], [2, 2, 1]]
    assert _apply_rows([[1], [1]], (1, 1), 2) == (0,)
    assert _apply_rows([[1], [1]], (1, 1), 3) == (2,)
    assert _apply_rows(rows, (2, 1), 3) == ((2 * 1 + 2) % 3, (2 * 2 + 2) % 3, 1)
    assert _apply_rows([], (), 3) == ()
    # a 1 x 2 times a 2 x 3 matrix is 1 x 3
    assert mat_mul(((1, 1),), rows, 3) == ((0, 1, 1),)


def test_wp_transversal_is_an_f_p_line(monkeypatch):
    # the premise of Corollary C in ftk.semidirect: the p representatives
    # are the multiples of one element, so an F_p combination of them is
    # one.  Every field with q <= 2^14 and p <= 127, with the tables made
    # to raise: the representative of trace t is t times that of trace 1,
    # which has trace 1 and is its own representative
    def refuse(spec):
        raise AssertionError(f"the tables of {spec!r} were built")

    monkeypatch.setattr(fields_mod, "_field_tables", refuse)
    count = 0
    for p in filter(_is_prime, range(2, 128)):
        e = 1
        while p**e <= MAX_TABLE_Q:
            spec = field(p, e)
            unit = _trace_rep(spec, 1)
            assert spec.trace(unit) == 1 and spec.wp_transversal_rep(unit) == unit, (p, e)
            assert all(_trace_rep(spec, t) == unit * t for t in range(p)), (p, e)
            count += 1
            e += 1
    assert count == 92


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


def test_power_makes_no_product_by_one_and_no_last_squaring(monkeypatch):
    # square and multiply from the low bit: x^2 is one squaring and x^128
    # seven (3 and 9 when the product started from one and squared after
    # the top bit); x^255 is seven squarings and seven products
    F256 = field(2, 8)
    x = F256.from_index(0x53)
    calls = []
    mul = FqElem.__mul__

    def counted(a, b):
        calls.append(b)
        return mul(a, b)

    monkeypatch.setattr(FqElem, "__mul__", counted)
    powers = {}
    for n, count in ((0, 0), (1, 0), (2, 1), (128, 7), (255, 14)):
        del calls[:]
        powers[n] = x**n
        assert len(calls) == count, n
    monkeypatch.undo()
    # x^2 and x^128 = x^(2^7) are Frobenius and its inverse, by their matrices
    assert powers == {0: F256.one(), 1: x, 2: x.frobenius(), 128: x.pth_root(), 255: F256.one()}


def test_power_refuses_an_exponent_below_one():
    # a right-to-left loop never ends on a negative n (-1 >> 1 == -1);
    # mat_pow(a, -1, p) used to return a, and mat_pow(a, -2, p) a^2
    a = ((0, 1), (1, 1))
    for n in (-1, -2):
        with pytest.raises(DomainError, match=f"got n = {n}"):
            mat_pow(a, n, 2)
    assert mat_pow(a, 0, 2) == ((1, 0), (0, 1))
    for n in (0, -1, -2):
        with pytest.raises(DomainError, match=f"n >= 1, got n = {n}"):
            fields_mod.power(a, n, lambda x, y: mat_mul(x, y, 2))


@given(st.integers(1, 40), st.randoms(use_true_random=False))
def test_power_is_the_left_fold_of_its_factors(n, rng):
    # each caller of fields.power against n factors multiplied in turn
    F81, R = field(3, 4), local_test_ring(2, 2, 3)
    p, f = F81.p, F81.modulus
    k = R.kernel(6)
    x = F81.from_index(rng.randrange(F81.q))
    y = R.from_index(rng.randrange(R.base.q**R.m))
    a = tuple(tuple(rng.randrange(5) for _ in range(3)) for _ in range(3))
    poly = _poly_mod([rng.randrange(p) for _ in range(4)], f, p)
    window = k.pack([R.from_index(rng.randrange(R.base.q**R.m)).coords for _ in range(6)])
    cases = [
        (x, FqElem.__mul__, x**n),
        (y, type(y).__mul__, y**n),
        (a, lambda u, v: mat_mul(u, v, 5), mat_pow(a, n, 5)),
        (poly, lambda u, v: _poly_mod(_poly_mul(u, v, p), f, p), _poly_powmod(poly, n, f, p)),
        (window, lambda u, v: k.mul(u, v, 6), ftk.series._power(k, window, n, 6)),
    ]
    for base, mul, by_caller in cases:
        fold = functools.reduce(mul, [base] * n)
        assert fields_mod.power(base, n, mul) == fold
        assert by_caller == fold


def test_trace_matches_the_frobenius_sum():
    # every element of every field with q <= 2^10, and 200 random elements
    # of two fields that have no tables
    count = 0
    for p in filter(_is_prime, range(2, 2**10)):
        e = 1
        while p**e <= 2**10:
            elems = field(p, e).elements()
            assert [c.spec.trace(c) for c in elems] == [schoolbook.trace(c) for c in elems], (p, e)
            count += 1
            e += 1
    assert count == 198
    rng = random.Random(20)
    for spec in (field(2, 20), field(3, 13)):
        assert spec.q > MAX_TABLE_Q
        for c in (spec.from_index(rng.randrange(spec.q)) for _ in range(200)):
            assert spec.trace(c) == schoolbook.trace(c)


@pytest.mark.parametrize("p, top", [(2, 40), (3, 24), (5, 12), (7, 8), (65537, 3)])
def test_basis_traces_match_the_frobenius_sums(p, top):
    # Newton's identities on the modulus against the constant digits of
    # the Frobenius matrices, for every e <= top
    for e in range(1, top + 1):
        assert _basis_traces(field(p, e)) == schoolbook.frobenius_traces(field(p, e)), e


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


def test_modulus_search_skips_only_reducible_binomials():
    # the search starts after the binomials x^e + c when a prime factor of
    # e does not divide p - 1, or when 4 | e and p = 3 mod 4; it picks the
    # modulus of the search that tests every index from 0
    cases = [(p, e) for p in range(2, 32) if _is_prime(p) for e in range(1, 5) if p**e <= 40000]
    assert len(cases) == 39
    for p, e in cases:
        assert fields_mod._smallest_irreducible(p, e) == schoolbook.full_modulus_search(p, e), (p, e)


@pytest.mark.parametrize("p", [65537, 1000037])
def test_cubic_modulus_over_p_2_mod_3_is_found_at_once(p):
    # p = 2 mod 3, so 3 does not divide p - 1 and no x^3 + c is
    # irreducible: field(65537, 3) took 4.1 s while the search tested them,
    # and field(1000037, 3) did not finish in 20 s
    t0 = time.perf_counter()
    spec = field.__wrapped__(p, 3)
    assert time.perf_counter() - t0 < 1
    assert spec.modulus[1:-1] != (0, 0) and fields_mod._poly_is_irreducible(spec.modulus, p)


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
