"""Tests for static and dynamic interference detection."""

from repro.core.interference import (
    conflicting_objects,
    dynamic_interferes,
    instantiation_read_objects,
    instantiation_write_objects,
    interference_graph,
    interferes,
    noninterfering_classes,
)
from repro.lang import RuleBuilder
from repro.lang.builder import var
from repro.match.instantiation import Instantiation
from repro.wm.element import WME
from repro.wm.schema import Catalog


def reader(name="reader", relation="a"):
    # Each reader logs to its own relation so that two readers do not
    # accidentally write-write conflict on a shared log.
    return (
        RuleBuilder(name)
        .when(relation, id=var("x"))
        .make(f"log-{name}", src=var("x"))
        .build()
    )


def writer(name="writer", relation="a"):
    return (
        RuleBuilder(name)
        .when(relation, id=var("x"))
        .modify(1, touched=True)
        .build()
    )


class TestStaticInterference:
    def test_write_read_overlap(self):
        assert interferes(writer(), reader())
        assert interferes(reader(), writer())  # symmetric

    def test_write_write_overlap(self):
        assert interferes(writer("w1"), writer("w2"))

    def test_read_read_no_interference(self):
        r1 = (
            RuleBuilder("r1").when("a", id=var("x")).make("out1").build()
        )
        r2 = (
            RuleBuilder("r2").when("a", id=var("x")).make("out2").build()
        )
        assert not interferes(r1, r2)

    def test_disjoint_relations_no_interference(self):
        assert not interferes(writer(relation="a"), reader("r", "b"))

    def test_self_interferes(self):
        w = writer()
        assert interferes(w, w)

    def test_negated_element_counts_as_read(self):
        watcher = (
            RuleBuilder("watch")
            .when("tick", id=var("x"))
            .when_not("a", id=var("x"))
            .make("alarm")
            .build()
        )
        assert interferes(writer(), watcher)

    def test_interference_graph(self):
        rules = [writer("w"), reader("r"), reader("other", "zzz")]
        graph = interference_graph(rules)
        assert graph["w"] == {"r"}
        assert graph["other"] == set()

    def test_noninterfering_classes(self):
        rules = [writer("w"), reader("r"), reader("lone", "zzz")]
        classes = noninterfering_classes(rules)
        assert frozenset({"w", "r"}) in classes
        assert frozenset({"lone"}) in classes


def _inst(rule, *wmes, bindings=None):
    return Instantiation.build(rule, tuple(wmes), bindings or {})


class TestDynamicInterference:
    def test_read_objects_include_tuples_and_negated_relations(self):
        rule = (
            RuleBuilder("r")
            .when("order", id=var("x"))
            .when_not("hold", order=var("x"))
            .make("log")
            .build()
        )
        wme = WME.make("order", id=1)
        objs = instantiation_read_objects(_inst(rule, wme))
        assert ("order", 1) in objs
        assert Catalog.catalog_lock_key("hold") in objs

    def test_write_objects_for_modify(self):
        rule = writer()
        wme = WME.make("a", id=1)
        objs = instantiation_write_objects(_inst(rule, wme))
        assert ("a", 1) in objs
        assert Catalog.catalog_lock_key("a") in objs

    def test_write_objects_for_make_are_relation_level(self):
        rule = reader()
        wme = WME.make("a", id=1)
        objs = instantiation_write_objects(_inst(rule, wme))
        assert objs == frozenset(
            {Catalog.catalog_lock_key("log-reader")}
        )

    def test_lock_footprint_is_both_sets_sorted_by_repr_and_cached(self):
        # The engines request locks in this order, wave after wave, so
        # it is computed once per instantiation and never re-sorted.
        rule = (
            RuleBuilder("r")
            .when("order", id=var("x"))
            .when("customer", id=var("c"))
            .when_not("hold", order=var("x"))
            .modify(1, status="shipped")
            .remove(2)
            .make("shipment", order=var("x"))
            .build()
        )
        inst = _inst(
            rule, WME.make("order", id=10), WME.make("customer", id=9)
        )
        reads, writes = inst.lock_footprint()
        assert inst.lock_footprint() is inst.lock_footprint()
        assert reads == tuple(
            sorted(instantiation_read_objects(inst), key=repr)
        )
        assert writes == tuple(
            sorted(instantiation_write_objects(inst), key=repr)
        )
        assert set(reads) == {
            ("order", 10), ("customer", 9),
            Catalog.catalog_lock_key("hold"),
        }
        assert set(writes) == {
            ("order", 10), ("customer", 9),
            Catalog.catalog_lock_key("order"),
            Catalog.catalog_lock_key("customer"),
            Catalog.catalog_lock_key("shipment"),
        }

    def test_same_tuple_conflict(self):
        wme = WME.make("a", id=1)
        w_inst = _inst(writer(), wme)
        r_inst = _inst(reader(), wme)
        assert dynamic_interferes(w_inst, r_inst)
        assert conflicting_objects(w_inst, r_inst)

    def test_different_tuples_do_not_conflict_at_tuple_level(self):
        w_inst = _inst(writer(), WME.make("a", id=1))
        r2 = (
            RuleBuilder("pure-reader")
            .when("a", id=var("x"))
            .make("log2", src=var("x"))
            .build()
        )
        r_inst = _inst(r2, WME.make("a", id=2))
        # writer modifies tuple 1 and relation 'a' membership; the pure
        # reader reads tuple 2 only -> relation-level covers: conflict.
        assert dynamic_interferes(w_inst, r_inst)

    def test_fully_disjoint_instantiations(self):
        w_inst = _inst(writer(), WME.make("a", id=1))
        other = _inst(
            reader("r", "zzz"), WME.make("zzz", id=9)
        )
        assert not dynamic_interferes(w_inst, other)

    def test_relation_lock_covers_tuples(self):
        """A make into relation 'a' conflicts with a reader of any
        tuple of 'a' through the catalog lock."""
        maker = (
            RuleBuilder("maker")
            .when("tick", id=var("t"))
            .make("a", id=var("t"))
            .build()
        )
        m_inst = _inst(maker, WME.make("tick", id=5))
        r_inst = _inst(reader(), WME.make("a", id=1))
        assert dynamic_interferes(m_inst, r_inst)
