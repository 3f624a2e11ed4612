"""The catalog as it stood before a ``P`` line carried its zone cell.

Kept verbatim (only the imports changed) as the oracle that
``test_harness.py`` compares the production ``Catalog`` with. ``build``
takes each venue's zone cell from ``derive_zones``, and ``catalog.tsv``
states every category and zone twice: once on a ``C``/``Z`` line with an
explicit index, and again as indices on each ``P`` line, which
``from_tsv`` cross-checks.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from math import floor

from geostream.errors import ConfigError, IngestionError
from geostream.reward import PoiInfo


def derive_zones(records, cell_deg: float) -> dict[str, tuple[int, int]]:
    """Grid cell per venue from its first record's coordinates."""
    if cell_deg <= 0:
        raise ConfigError("cell_deg must be positive")
    zones: dict[str, tuple[int, int]] = {}
    for r in records:
        if r.venue not in zones:
            zones[r.venue] = (floor(r.lat / cell_deg), floor(r.lon / cell_deg))
    return zones


@dataclass
class Catalog:
    """Index maps between raw stream ids and dense graph indices."""

    users: dict[str, int] = field(default_factory=dict)
    venues: dict[str, int] = field(default_factory=dict)
    categories: dict[str, int] = field(default_factory=dict)
    zones: dict[tuple[int, int], int] = field(default_factory=dict)
    poi_info: list[PoiInfo] = field(default_factory=list)
    poi_category: list[int] = field(default_factory=list)
    poi_zone: list[int] = field(default_factory=list)
    raw_venues: list[str] = field(default_factory=list)

    @classmethod
    def build(cls, records, cell_deg: float) -> "Catalog":
        cat = cls()
        zone_of = derive_zones(records, cell_deg)
        for r in records:
            if r.user not in cat.users:
                cat.users[r.user] = len(cat.users)
            if r.venue not in cat.venues:
                idx = len(cat.venues)
                cat.venues[r.venue] = idx
                cat.raw_venues.append(r.venue)
                if r.category_name not in cat.categories:
                    cat.categories[r.category_name] = len(cat.categories)
                cell = zone_of[r.venue]
                if cell not in cat.zones:
                    cat.zones[cell] = len(cat.zones)
                cat.poi_info.append(PoiInfo(idx, r.category_name, r.lat, r.lon))
                cat.poi_category.append(cat.categories[r.category_name])
                cat.poi_zone.append(cat.zones[cell])
        return cat

    def to_tsv(self) -> str:
        out = io.StringIO()
        for u in self.users:
            out.write(f"U\t{u}\n")
        for name, idx in sorted(self.categories.items(), key=lambda kv: kv[1]):
            out.write(f"C\t{idx}\t{name}\n")
        for cell, idx in sorted(self.zones.items(), key=lambda kv: kv[1]):
            out.write(f"Z\t{idx}\t{cell[0]}\t{cell[1]}\n")
        for v, idx in sorted(self.venues.items(), key=lambda kv: kv[1]):
            info = self.poi_info[idx]
            out.write(
                f"P\t{v}\t{self.poi_category[idx]}\t{self.poi_zone[idx]}"
                f"\t{info.lat!r}\t{info.lon!r}\t{info.category}\n"
            )
        return out.getvalue()

    @classmethod
    def from_tsv(cls, text: str) -> "Catalog":
        """Parse ``to_tsv`` output; ``IngestionError`` names the first bad line."""
        cat = cls()
        for no, line in enumerate(text.splitlines(), 1):
            if line:
                try:
                    cat._read_line(line.split("\t"))
                except ValueError as exc:
                    raise IngestionError(f"line {no}: {exc}") from None
        return cat

    def _read_line(self, parts: list[str]) -> None:
        tag = parts[0]
        if tag not in _TSV_FIELDS:
            raise ValueError(f"unknown tag {tag!r}")
        if len(parts) != _TSV_FIELDS[tag]:
            raise ValueError(f"{tag} line has {len(parts)} fields, want {_TSV_FIELDS[tag]}")
        if tag == "U":
            _claim_next(self.users, parts[1], "user")
        elif tag == "C":
            _claim_next(self.categories, parts[2], "category", int(parts[1]))
        elif tag == "Z":
            _claim_next(self.zones, (int(parts[2]), int(parts[3])), "zone", int(parts[1]))
        else:
            c, z = int(parts[2]), int(parts[3])
            if not (0 <= c < len(self.categories) and 0 <= z < len(self.zones)):
                raise ValueError(f"category {c} or zone {z} not declared")
            if self.categories.get(parts[6]) != c:
                raise ValueError(f"category name {parts[6]!r} is not that of category {c}")
            idx = _claim_next(self.venues, parts[1], "venue")
            self.raw_venues.append(parts[1])
            self.poi_category.append(c)
            self.poi_zone.append(z)
            self.poi_info.append(PoiInfo(idx, parts[6], float(parts[4]), float(parts[5])))


# fields per catalog line, by tag
_TSV_FIELDS = {"U": 2, "C": 3, "Z": 4, "P": 7}


def _claim_next(index: dict, key, what: str, idx: int | None = None) -> int:
    """Give ``key`` the next index of ``index``; a stated ``idx`` must be that index."""
    if key in index:
        raise ValueError(f"duplicate {what} {key!r}")
    if idx is not None and idx != len(index):
        raise ValueError(f"{what} index {idx}, want {len(index)}")
    index[key] = len(index)
    return index[key]
