"""Tests for relationships and session counts."""

import pytest

from repro.bgp.policy import Relationship
from repro.bgp.session import (
    bilateral_session_count,
    multilateral_session_count,
)

from tests.oracle.propagation import inverse_relationship


class TestRelationship:
    def test_inverse(self):
        inverse = inverse_relationship
        assert inverse(Relationship.CUSTOMER) is Relationship.PROVIDER
        assert inverse(Relationship.PROVIDER) is Relationship.CUSTOMER
        assert inverse(Relationship.PEER) is Relationship.PEER
        assert inverse(Relationship.RS_PEER) is Relationship.RS_PEER
        assert inverse(Relationship.SIBLING) is Relationship.SIBLING


class TestSession:
    def test_session_counts_figure1(self):
        # Figure 1: six ASes in a full mesh need 15 bilateral sessions but
        # only 12 sessions with two route servers.
        assert bilateral_session_count(6) == 15
        assert multilateral_session_count(6, 2) == 12
        assert multilateral_session_count(6, 1) == 6

    def test_session_count_validation(self):
        with pytest.raises(ValueError):
            bilateral_session_count(-1)
        with pytest.raises(ValueError):
            multilateral_session_count(5, -1)
