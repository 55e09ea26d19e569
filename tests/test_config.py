"""Topology loading and hop arithmetic."""

from __future__ import annotations

import json

import pytest

from rula.config import ConfigError, Topology, load_config


def _chain(n: int) -> str:
    return json.dumps(
        {"repeaters": [{"name": f"#{i + 1}", "address": i} for i in range(n)]}
    )


class TestLoad:
    def test_three_entry_chain(self):
        topology = load_config(_chain(3))
        assert topology.count == 3
        assert topology.at(1).address == 1
        assert topology.at(0).name == "#1"

    def test_five_entry_chain(self):
        assert load_config(_chain(5)).count == 5

    def test_corpus_config_files(self, corpus):
        for n in (2, 3, 5, 7):
            topology = load_config((corpus / f"config{n}.json").read_text())
            assert topology.count == n

    def test_addresses_need_not_equal_indices(self):
        text = json.dumps(
            {"repeaters": [{"name": "a", "address": 10}, {"name": "b", "address": 20}]}
        )
        topology = load_config(text)
        assert topology.at(1).address == 20
        assert topology.at(0).address == 10

    def test_empty_array_rejected(self):
        with pytest.raises(ConfigError, match="at least one repeater required"):
            load_config('{"repeaters": []}')

    def test_duplicate_address_rejected(self):
        text = json.dumps(
            {"repeaters": [{"name": "a", "address": 0}, {"name": "b", "address": 0}]}
        )
        with pytest.raises(ConfigError, match=r"repeaters\[1\].address 0 duplicates"):
            load_config(text)

    def test_missing_field_rejected(self):
        with pytest.raises(ConfigError, match=r'repeaters\[0\] is missing "address"'):
            load_config('{"repeaters": [{"name": "a"}]}')

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown field"):
            load_config('{"repeaters": [{"name": "a", "address": 0, "kind": "x"}]}')

    def test_non_json_rejected(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config("{nope")

    def test_boolean_address_rejected(self):
        with pytest.raises(ConfigError, match="must be an integer"):
            load_config('{"repeaters": [{"name": "a", "address": true}]}')

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[]", "configuration root must be a JSON object"),
            ('{"repeaters": [], "links": []}', "unknown configuration field 'links'"),
            ("{}", 'configuration must contain a "repeaters" array'),
            ('{"repeaters": {}}', '"repeaters" must be an array'),
            ('{"repeaters": [1]}', "repeaters[0] must be an object"),
            ('{"repeaters": [{"address": 0}]}', 'repeaters[0] is missing "name"'),
            ('{"repeaters": [{"name": 1, "address": 0}]}', "repeaters[0].name must be a string"),
            ('{"repeaters": [{"name": "a", "address": -1}]}', "repeaters[0].address must be non-negative"),
            (
                '{"repeaters": [{"name": "a", "address": 1%s}]}' % ("0" * 5000),
                "configuration holds an integer too long to convert",
            ),
        ],
        ids=[
            "root", "unknown-field", "no-repeaters", "repeaters-not-array", "entry-not-object",
            "missing-name", "name-not-string", "negative-address", "integer-too-long",
        ],
    )
    def test_field_error_named(self, text, message):
        with pytest.raises(ConfigError) as err:
            load_config(text)
        assert str(err.value) == message


class TestHops:
    @pytest.fixture()
    def topology(self) -> Topology:
        return load_config(_chain(5))

    def test_hop_back_one(self, topology):
        assert topology.hop(1, -1) is topology.at(0)

    def test_identity_hop(self, topology):
        assert topology.hop(2, 0) is topology.at(2)

    def test_hop_agrees_with_at(self, topology):
        for i in range(5):
            for k in range(-4, 5):
                if 0 <= i + k < 5:
                    assert topology.hop(i, k) is topology.at(i + k)

    def test_hop_off_initiator_end(self, topology):
        with pytest.raises(ConfigError, match="hop leaves the path"):
            topology.hop(0, -1)

    def test_hop_off_responder_end(self, topology):
        with pytest.raises(ConfigError, match="hop leaves the path"):
            topology.hop(4, 1)

    def test_at_out_of_range_names_index_and_count(self, topology):
        with pytest.raises(ConfigError, match="index 5.*chain of 5"):
            topology.at(5)
        with pytest.raises(ConfigError, match="index -1"):
            topology.at(-1)
