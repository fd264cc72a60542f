"""Tests for the IRR database and PeeringDB substrates."""

from repro.registries.irr import ASSet, AutNumPolicy, IRRDatabase
from repro.registries.peeringdb import PeeringDB, PeeringDBRecord
from repro.topology.as_graph import GeographicScope, PeeringPolicy


class TestIRRDatabase:
    def test_aut_num_policy_semantics(self):
        policy = AutNumPolicy(asn=1, blocked_import={5}, blocked_export={5, 6})
        assert policy.references_asn(5) and policy.references_asn(6)
        assert not policy.references_asn(7)


    def test_ases_referencing_rs_asn(self):
        irr = IRRDatabase()
        irr.register_aut_num(AutNumPolicy(asn=10, rs_peers={8714}))
        irr.register_aut_num(AutNumPolicy(asn=11, rs_peers={6695}))
        assert irr.ases_referencing(8714) == [10]

    def test_len(self):
        irr = IRRDatabase()
        irr.register_aut_num(AutNumPolicy(asn=1))
        irr.register_as_set(ASSet(name="AS-X"))
        assert len(irr) == 2


class TestPeeringDB:
    def test_register_and_query(self):
        db = PeeringDB()
        db.register(PeeringDBRecord(asn=15169, name="Google",
                                    policy=PeeringPolicy.OPEN,
                                    scope=GeographicScope.GLOBAL,
                                    ixps={"DE-CIX", "AMS-IX"}))
        assert db.policy_of(15169) is PeeringPolicy.OPEN
        assert db.scope_of(15169) is GeographicScope.GLOBAL
        assert 15169 in db and len(db) == 1

    def test_unregistered_network_defaults(self):
        db = PeeringDB()
        assert db.record(1) is None
        assert db.policy_of(1) is PeeringPolicy.UNKNOWN
        assert db.scope_of(1) is GeographicScope.NOT_AVAILABLE

    def test_looking_glasses(self):
        db = PeeringDB()
        db.add_looking_glass(10, "https://lg.example", display_all_paths=False)
        db.add_looking_glass(20, "https://lg2.example")
        [first] = db.record(10).looking_glasses
        assert first.display_all_paths is False
        assert db.record(20).looking_glasses[0].display_all_paths
