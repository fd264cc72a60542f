"""Tests for ASN classification and the private 16-bit mapper."""

import pytest

from repro.bgp.asn import (
    AS_TRANS,
    Private16BitMapper,
    is_32bit_asn,
    is_private_asn,
    is_reserved_asn,
    is_routable_asn,
    routable_mask,
)


class TestClassification:
    def test_ordinary_asn_is_routable(self):
        assert is_routable_asn(3356)
        assert is_routable_asn(15169)

    def test_as_trans_is_reserved(self):
        assert is_reserved_asn(AS_TRANS)
        assert not is_routable_asn(AS_TRANS)

    def test_zero_and_negative_are_reserved(self):
        assert is_reserved_asn(0)
        assert is_reserved_asn(-5)

    def test_unassigned_block_is_reserved(self):
        assert is_reserved_asn(63488)
        assert is_reserved_asn(100000)
        assert is_reserved_asn(131071)
        assert not is_reserved_asn(131072)

    def test_private_16bit_range(self):
        assert is_private_asn(64512)
        assert is_private_asn(65534)
        assert not is_private_asn(64511)

    def test_private_32bit_range(self):
        assert is_private_asn(4200000000)
        assert not is_private_asn(4199999999)

    def test_private_is_not_routable(self):
        assert not is_routable_asn(64512)

    def test_32bit_detection(self):
        assert is_32bit_asn(65536)
        assert is_32bit_asn(200000)
        assert not is_32bit_asn(65535)

    def test_max_asn_boundary(self):
        assert is_reserved_asn(2**32 - 1)
        assert is_reserved_asn(2**32)

    def test_routable_mask_matches_scalar_classification(self):
        edges = [-5, 0, 1, 3356, AS_TRANS - 1, AS_TRANS, AS_TRANS + 1,
                 63487, 63488, 64511, 64512, 65534, 65535, 65536, 131071,
                 131072, 4199999999, 4200000000, 4294967294, 2**32 - 1,
                 2**32, 2**40]
        assert routable_mask(edges).tolist() == \
            [is_routable_asn(asn) for asn in edges]


class TestPrivate16BitMapper:
    def test_16bit_asn_maps_to_itself(self):
        mapper = Private16BitMapper()
        assert mapper.register(6695) == 6695
        assert mapper.alias_for(6695) == 6695

    def test_32bit_asn_gets_private_alias(self):
        mapper = Private16BitMapper()
        alias = mapper.register(200000)
        assert 64512 <= alias <= 65534
        assert mapper.alias_for(200000) == alias
        assert mapper.resolve(alias) == 200000

    def test_registration_is_idempotent(self):
        mapper = Private16BitMapper()
        first = mapper.register(200001)
        second = mapper.register(200001)
        assert first == second
        assert len(mapper) == 1

    def test_distinct_asns_get_distinct_aliases(self):
        mapper = Private16BitMapper()
        aliases = {mapper.register(200000 + i) for i in range(10)}
        assert len(aliases) == 10

    def test_resolve_unknown_alias_returns_input(self):
        mapper = Private16BitMapper()
        assert mapper.resolve(64999) == 64999

    def test_alias_for_unregistered_32bit_raises(self):
        mapper = Private16BitMapper()
        with pytest.raises(KeyError):
            mapper.alias_for(300000)

    def test_try_alias_for_unregistered_returns_none(self):
        mapper = Private16BitMapper()
        assert mapper.try_alias_for(300000) is None
        assert mapper.try_alias_for(100) == 100

    def test_register_all_and_mapping(self):
        mapper = Private16BitMapper()
        mapper.register_all([200000, 200001, 42])
        mapping = mapper.mapping()
        assert set(mapping) == {200000, 200001}

    def test_space_exhaustion(self):
        mapper = Private16BitMapper(start=65533)
        mapper.register(400000)
        mapper.register(400001)
        with pytest.raises(OverflowError):
            mapper.register(400002)

    def test_invalid_start_rejected(self):
        with pytest.raises(ValueError):
            Private16BitMapper(start=1000)
