"""Repeater chain configuration.

The configuration file is a JSON object with a top-level "repeaters" array of
{"name", "address"} entries.  List order is path order: index 0 sits at the
initiator side and the last entry at the responder side.  The schema itself is
a straight line; hop arithmetic is plain signed index offsetting.

Addresses identify nodes on the wire (partner_addr fields), indices drive hop
math.  The two coincide in typical configurations but are not required to.
"""

from __future__ import annotations

import json
from dataclasses import dataclass


class ConfigError(ValueError):
    """Raised for malformed configuration input or out-of-range lookups."""


@dataclass(frozen=True)
class Repeater:
    name: str
    address: int
    index: int


@dataclass(frozen=True)
class Topology:
    repeaters: tuple[Repeater, ...]

    @property
    def count(self) -> int:
        return len(self.repeaters)

    def at(self, index: int) -> Repeater:
        if not 0 <= index < self.count:
            raise ConfigError(
                f"repeater index {index} is out of range for a chain of {self.count}"
            )
        return self.repeaters[index]

    def hop(self, from_index: int, offset: int) -> Repeater:
        if not 0 <= from_index < self.count:
            raise ConfigError(
                f"repeater index {from_index} is out of range for a chain of {self.count}"
            )
        target = from_index + offset
        if not 0 <= target < self.count:
            raise ConfigError(
                f"hop leaves the path: index {from_index} with offset {offset} "
                f"targets {target}, valid indices are 0..{self.count - 1}"
            )
        return self.repeaters[target]


def load_config(text: str) -> Topology:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration is not valid JSON: {exc}") from None
    except ValueError:  # an integer of more digits than int() converts
        raise ConfigError("configuration holds an integer too long to convert") from None
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be a JSON object")
    unknown = set(data) - {"repeaters"}
    if unknown:
        raise ConfigError(f"unknown configuration field {sorted(unknown)[0]!r}")
    if "repeaters" not in data:
        raise ConfigError('configuration must contain a "repeaters" array')
    entries = data["repeaters"]
    if not isinstance(entries, list):
        raise ConfigError('"repeaters" must be an array')
    if not entries:
        raise ConfigError("at least one repeater required")

    repeaters: list[Repeater] = []
    seen: dict[int, int] = {}
    for i, entry in enumerate(entries):
        where = f"repeaters[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{where} must be an object")
        for required in ("name", "address"):
            if required not in entry:
                raise ConfigError(f'{where} is missing "{required}"')
        unknown_entry = set(entry) - {"name", "address"}
        if unknown_entry:
            raise ConfigError(f"{where} has unknown field {sorted(unknown_entry)[0]!r}")
        name = entry["name"]
        address = entry["address"]
        if not isinstance(name, str):
            raise ConfigError(f"{where}.name must be a string")
        if not isinstance(address, int) or isinstance(address, bool):
            raise ConfigError(f"{where}.address must be an integer")
        if address < 0:
            raise ConfigError(f"{where}.address must be non-negative")
        if address in seen:
            raise ConfigError(
                f"{where}.address {address} duplicates repeaters[{seen[address]}]"
            )
        seen[address] = i
        repeaters.append(Repeater(name, address, i))
    return Topology(tuple(repeaters))
