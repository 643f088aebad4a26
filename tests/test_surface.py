"""What the package keeps.

The `MeasurableRV`-arithmetic integrals, dependence audits, pointwise
driver evaluators, sampled driver audits and per-entry flip
coefficients have no caller in the package; they live in
tests/_oracles.py, and no package module defines or exports them, nor
the defect table and block walk the walk of extremes replaced.  Every
module-level import of a package module is read in it.  `slot_args`
reads the means in one form, with no type test, and a scenario works out
its driver source itself.  The sweep and the map take a member list with
no type test, the per-row decision is the `swapped` flag, and the flip
equation's terms are `slot_terms`.  W(T) is built once per lattice and
lane, and the terminal tables built on the shared walk are those of a
walk built per node.  One Picard loop keeps the tables: `solver.iterate`
has one call form, with no type test, and no module but the lattice and
the solver names the sweep's stack storage.  `MeasurableRV` is a (field,
table) record: the per-entry algebra (its operators, `at`, `constant`,
`PathIndex`, `lift`, `fill_table`, `expectation`, `flip_derivative`,
`b_increment`) lives in tests/_oracles.py, and `condexp` stays exported.
"""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

import mfbdsvie
from mfbdsvie.drivers import (
    LinearDriver,
    TerminalSpec,
    terminal_rv,
    terminal_walk_values,
)
from mfbdsvie import lattice
from mfbdsvie.lattice import MeasurableRV, build_lattice, clark_ocone_sweep
from mfbdsvie.malliavin import _linearized_terms
from mfbdsvie.solver import Scenario, iterate, map_rows, slot_args

SRC = Path(mfbdsvie.__file__).parent
MODULES = sorted(SRC.glob("*.py"))
RETIRED = (
    "forward_integral", "backward_integral", "_audited_sum",
    "measurable_wrt", "depends_on_w_bit", "depends_on_b_bit", "_varies",
    "w_level", "b_tail", "w_increment", "zero_rv", "all_paths",
    "eval_f", "eval_g", "eval_partials", "_check_grid", "lipschitz_audit",
    "partials_audit", "partial_bound_audit", "_entries", "f_coef", "g_coef",
    "row_defects", "_blocks", "BLOCK_BITS", "audit_z_flags", "from_bit_view",
    "lift_single_to_joint", "_frozen_args", "sup_distance",
)
# the per-entry layer, moved to tests/_oracles.py or deleted; `lift` is not
# in RETIRED, as the sweep's code binds locals of that name
MOVED = ("PathIndex", "b_increment", "expectation", "fill_table",
         "flip_derivative", "lift", "trivial_field")
RECORD = {"__init__", "__setattr__", "lattice", "max_abs"}
TERMINAL = TerminalSpec(phi=0.3, theta=lambda t: 1.0 + t,
                        smooth=[("tanh", 0.5), ("soft_abs", -0.2)])


def identifiers(tree):
    """Every identifier a module names: names, attributes, arguments,
    keywords, definitions and imports."""
    for node in ast.walk(tree):
        for key in ("id", "attr", "arg", "name", "asname"):
            if isinstance(getattr(node, key, None), str):
                yield getattr(node, key)


def called(fn):
    """The names fn's body calls, as plain names or attributes."""
    return {node.func.id if isinstance(node.func, ast.Name)
            else getattr(node.func, "attr", None)
            for node in ast.walk(ast.parse(inspect.getsource(fn)))
            if isinstance(node, ast.Call)}


def bound_names(tree):
    """Every name a module binds: definitions, assignments and imports."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.alias):
            yield node.asname or node.name


class TestRetired:
    @pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
    def test_not_defined_in_the_package(self, path):
        bound = set(bound_names(ast.parse(path.read_text())))
        assert not bound & set(RETIRED)

    def test_not_exported(self):
        assert not set(RETIRED) & set(mfbdsvie.__all__)
        assert not [name for name in RETIRED if hasattr(mfbdsvie, name)]


def module_definitions(tree):
    """The names a module defines at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))


class TestEntryRecord:
    @pytest.mark.parametrize("module", [mfbdsvie, lattice],
                             ids=lambda m: m.__name__)
    def test_moved_names_are_gone(self, module):
        assert [name for name in MOVED if hasattr(module, name)] == []

    def test_moved_names_not_exported(self):
        assert not set(MOVED) & set(mfbdsvie.__all__)

    @pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
    def test_moved_names_not_defined_in_the_package(self, path):
        defined = set(module_definitions(ast.parse(path.read_text())))
        assert not defined & set(MOVED)

    def test_record_has_no_arithmetic(self):
        members = {name for name, v in vars(MeasurableRV).items()
                   if inspect.isfunction(v)
                   or isinstance(v, (property, staticmethod, classmethod))}
        assert members == RECORD
        assert not {"_binary", "__add__", "__radd__", "__sub__", "__rsub__",
                    "__mul__", "__rmul__", "__neg__", "at",
                    "constant"} & set(vars(MeasurableRV))

    def test_condexp_is_still_exported(self):
        assert "condexp" in mfbdsvie.__all__
        assert mfbdsvie.condexp is lattice.condexp


class TestOneMeanForm:
    def test_slot_args_makes_no_type_test(self):
        tree = ast.parse(inspect.getsource(slot_args))
        called = {node.func.id for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)}
        assert "isinstance" not in called

    def test_scenario_takes_no_source(self):
        assert "source" not in inspect.signature(Scenario).parameters


class TestOneCallForm:
    """The walks and the map take a member list, and each carries the
    `swapped` flag its terms are built with; the flip equation's slot terms
    come from `slot_terms`."""

    @pytest.mark.parametrize("fn", [clark_ocone_sweep, map_rows],
                             ids=lambda fn: fn.__name__)
    def test_no_type_test(self, fn):
        assert "isinstance" not in called(fn)

    @pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
    def test_no_one_stack_flag(self, path):
        assert "one_stack" not in set(identifiers(ast.parse(path.read_text())))

    def test_slot_layout_named_only_in_the_solver(self):
        naming = [p.name for p in MODULES
                  if {"_slot_layout", "_times_db"}
                  & set(identifiers(ast.parse(p.read_text())))]
        assert naming == ["solver.py"]

    def test_flip_terms_are_slot_terms(self):
        assert "slot_terms" in called(_linearized_terms)


class TestOneLoop:
    def test_iterate_makes_no_type_test(self):
        assert "isinstance" not in called(iterate)

    def test_stack_storage_named_only_in_the_lattice_and_the_solver(self):
        naming = [p.name for p in MODULES
                  if "SweepStacks" in set(identifiers(ast.parse(p.read_text())))]
        assert naming == ["lattice.py", "solver.py"]


class TestImportsAreRead:
    """`__init__` is left out: its imports are its exports."""

    @pytest.mark.parametrize(
        "path", [p for p in MODULES if p.name != "__init__.py"],
        ids=lambda p: p.name)
    def test_every_module_import_is_read(self, path):
        tree = ast.parse(path.read_text())
        imported = {(a.asname or a.name).split(".")[0]
                    for node in tree.body
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for a in node.names}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        assert sorted(imported - read) == []


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


class TestTerminalWalk:
    def test_one_shared_locked_walk(self):
        lat = build_lattice(4, 0.8)
        walk = terminal_walk_values(lat, 0)
        assert terminal_walk_values(lat, 0) is walk
        assert not walk.flags.writeable
        with pytest.raises(ValueError):
            walk[0] = 1.0

    def test_scenario_builds_the_walk_once(self):
        lat = build_lattice(5, 0.7)
        terminal_walk_values.cache_clear()
        sc = Scenario(lat, LinearDriver(f={"y": -0.2}), TERMINAL)
        info = terminal_walk_values.cache_info()
        assert (info.misses, info.hits) == (1, lat.n_steps)
        # the body without the cache, as every node built it before
        walk = terminal_walk_values.__wrapped__(lat, 0)
        for i, zeta in enumerate(sc.zeta):
            want = TERMINAL.value(lat.node(i), walk)
            assert np.array_equal(bits(zeta.values[:, 0]), bits(want))

    def test_each_lane_has_its_walk(self):
        lat = build_lattice(3, 1.0, lanes=3)
        for lane in range(3):
            got = terminal_rv(TERMINAL, lat, 2, lane=lane).values[:, 0]
            want = TERMINAL.value(
                lat.node(2), terminal_walk_values.__wrapped__(lat, lane))
            assert np.array_equal(bits(got), bits(want))
