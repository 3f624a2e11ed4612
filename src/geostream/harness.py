"""End-to-end pipeline: ingestion, zones, splits, the closed training loop.

The stream replay makes one pass per event, in a strict order: pool the
state and generate candidates for the incoming user, predict, score
against the real event, buffer the transition, periodically train the
agent (optionally feeding the Bellman gradient back into the
representation), and then apply the real event to the environment,
locally retraining the touched embeddings. Evaluation replays the
held-out tail with exploration off while the environment keeps evolving.

All randomness flows from one seeded generator, so identical configs
reproduce byte-identical traces.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import os
import re
import time as _time
from array import array
from dataclasses import dataclass, field, fields as dc_fields, replace
from datetime import datetime, timedelta, timezone
from math import floor, isfinite
from typing import NamedTuple

import numpy as np

from . import candidates as cand_mod
from . import embed as embed_mod
from . import kgstore
from . import legacy as legacy_mod
from . import metrics as metrics_mod
from . import policy as policy_mod
from .errors import (
    CompatibilityError,
    ConfigError,
    DataError,
    FormatError,
    IngestionError,
)
from .geo import check_coords
from .kgstore import DynamicKg, EntityKind
from .numkit import load_matrices, save_matrices, sgd_step
from .reward import (
    BaselineWindows,
    PoiInfo,
    RewardWeights,
    WordVectors,
    component_rewards,
    compute_reward,
)

AGENT_MODES = ("drpr", "drpr-static", "drpr-noexit", "drpr-nocand", "rirl")


class CheckInRecord(NamedTuple):
    user: str
    venue: str
    category_id: str
    category_name: str
    lat: float
    lon: float
    timestamp: float


@dataclass
class RunConfig:
    dataset: str = ""
    stream_offset: int = 0
    stream_length: int = 15000
    split_fraction: float = 0.8
    d: int = 200
    k: int = 20
    w: int = 50
    b: int = 200
    gamma: float = 0.9
    epsilon_start: float = 0.5
    epsilon_end: float = 0.05
    lambda_d: float = 1.0 / 3.0
    lambda_c: float = 1.0 / 3.0
    lambda_p: float = 1.0 / 3.0
    priority_mode: str = "td"
    agent_mode: str = "drpr"
    seed: int = 0
    cell_deg: float = 0.01
    d_floor_km: float = 0.1
    margin: float = 1.0
    gcn_layers: int = 2
    init_epochs: int = 5
    neg_per_pos: int = 1
    lr_embed: float = 0.01
    lr_q: float = 0.001
    lr_feedback: float = 0.001
    incr_steps: int = 2
    max_incr_triples: int = 20
    train_every: int = 4
    batch_size: int = 16
    buffer_capacity: int = 2000
    encoder_feedback: bool = True
    stochastic_replay: bool = False
    target_refresh: int = 0
    frozen_eval: bool = False
    qnet_hidden: int = 256
    legacy_n: int = 50
    legacy_bin_hours: float = 1.0
    wordvecs: str = ""

    def __post_init__(self):
        for f in dc_fields(self):
            if f.type == "float" and not isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} {getattr(self, f.name)} is not finite")
        if not 0.0 < self.split_fraction < 1.0:
            raise ConfigError(f"split_fraction {self.split_fraction} outside (0, 1)")
        for name in ("stream_length", "d", "k", "w", "b", "buffer_capacity", "batch_size", "qnet_hidden",
                     "legacy_n", "gcn_layers", "cell_deg", "d_floor_km", "legacy_bin_hours"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive")
        for name in ("stream_offset", "train_every", "target_refresh", "incr_steps",
                     "max_incr_triples", "init_epochs", "neg_per_pos", "seed", "lr_embed",
                     "lr_q", "lr_feedback", "margin", "lambda_d", "lambda_c", "lambda_p"):
            if not getattr(self, name) >= 0:
                raise ConfigError(f"{name} {getattr(self, name)} must be >= 0")
        for name in ("gamma", "epsilon_start", "epsilon_end"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} {getattr(self, name)} outside [0, 1]")
        if self.agent_mode not in AGENT_MODES:
            raise ConfigError(f"unknown agent_mode {self.agent_mode!r}")
        if self.priority_mode not in ("reward", "td"):
            raise ConfigError(f"unknown priority_mode {self.priority_mode!r}")
        self.reward_weights()  # validates the simplex constraint

    def reward_weights(self) -> RewardWeights:
        return RewardWeights(self.lambda_d, self.lambda_c, self.lambda_p)

    def epsilon_at(self, step: int, total: int) -> float:
        if total <= 1:
            return self.epsilon_start
        frac = step / (total - 1)
        return self.epsilon_start + (self.epsilon_end - self.epsilon_start) * frac

    def to_text(self) -> str:
        lines = []
        for f in dc_fields(self):
            v = getattr(self, f.name)
            if isinstance(v, bool):
                v = "true" if v else "false"
            lines.append(f"{f.name}={v}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        values: dict[str, str] = {}
        with open(path, "r", encoding="utf-8") as fh:
            for raw in fh:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"bad config line {line!r}")
                key, _, val = line.partition("=")
                key = key.strip()
                if key in values:
                    raise ConfigError(f"config key {key!r} given twice")
                values[key] = val.strip()
        return cls.from_mapping(values)

    @classmethod
    def from_mapping(cls, values: dict[str, str]) -> "RunConfig":
        known = {f.name: f for f in dc_fields(cls)}
        kwargs = {}
        for key, val in values.items():
            if key not in known:
                raise ConfigError(f"unknown config key {key!r}")
            typ = known[key].type
            if typ in ("int", "float"):
                try:
                    kwargs[key] = int(val) if typ == "int" else float(val)
                except (TypeError, ValueError):
                    raise ConfigError(f"bad {typ} for {key!r}: {val!r}") from None
            elif typ == "bool":
                if val.lower() in ("true", "1", "yes"):
                    kwargs[key] = True
                elif val.lower() in ("false", "0", "no"):
                    kwargs[key] = False
                else:
                    raise ConfigError(f"bad boolean for {key!r}: {val!r}")
            else:
                kwargs[key] = val
        return cls(**kwargs)


# -- ingestion -----------------------------------------------------------------

_FOURSQUARE_FMT = "%a %b %d %H:%M:%S %z %Y"
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")
# the canonical shape of _FOURSQUARE_FMT; each field admits no more than strptime's
_FOURSQUARE_RE = re.compile(
    r"(?:Mon|Tue|Wed|Thu|Fri|Sat|Sun) (" + "|".join(_MONTHS) + r") (0[1-9]|[12]\d|3[01]) "
    r"([01]\d|2[0-3]):([0-5]\d):([0-5]\d|6[01]) ([+-])(\d\d)([0-5]\d) (\d{4})",
    re.ASCII,
)


def _parse_timestamp(text: str) -> float:
    """Epoch seconds of a finite number or a ``_FOURSQUARE_FMT`` string.

    A string of the canonical shape is built directly; any other goes to
    ``strptime``, which gives the same float or ``ValueError``.
    """
    m = _FOURSQUARE_RE.fullmatch(text)
    if m:
        mon, day, hour, minute, sec, sign, off_h, off_m, year = m.groups()
        offset = timedelta(hours=int(off_h), minutes=int(off_m))
        tz = timezone(-offset if sign == "-" else offset)
        return datetime(int(year), _MONTHS.index(mon) + 1, int(day),
                        int(hour), int(minute), int(sec), tzinfo=tz).timestamp()
    try:
        ts = float(text)
    except ValueError:
        return datetime.strptime(text, _FOURSQUARE_FMT).timestamp()
    if not isfinite(ts):
        raise ValueError(f"timestamp {text!r} is not finite")
    return ts


def parse_checkins(path) -> list[CheckInRecord]:
    """Read tab-separated check-ins, skipping (and counting) bad lines.

    Field order: user, venue, category id, category name, latitude,
    longitude, timestamp (finite epoch seconds or a Foursquare-style string;
    an optional timezone-offset column before the timestamp is ignored).
    More than 10% malformed lines fails the whole file.
    """
    records: list[CheckInRecord] = []
    malformed = 0
    total = 0
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for raw in fh:
            line = raw.rstrip("\n").rstrip("\r")
            if not line:
                continue
            total += 1
            parts = line.split("\t")
            try:
                if len(parts) < 7:
                    raise ValueError("too few fields")
                lat = float(parts[4])
                lon = float(parts[5])
                check_coords(lat, lon)
                ts = _parse_timestamp(parts[-1])
                records.append(
                    CheckInRecord(parts[0], parts[1], parts[2], parts[3], lat, lon, ts)
                )
            except (ValueError, IndexError, DataError):
                malformed += 1
    if total and malformed > 0.1 * total:
        raise FormatError(f"{malformed}/{total} malformed lines in {path}")
    records.sort(key=lambda r: r.timestamp)
    return records


def split_stream(records, fraction: float):
    """Earliest floor(fraction * n) records for training, rest for testing."""
    cut = floor(fraction * len(records))
    return records[:cut], records[cut:]


def _read_stream(config: RunConfig) -> list[CheckInRecord]:
    """The whole check-in stream of ``config.dataset``."""
    if not config.dataset:
        raise ConfigError("config.dataset is required when records are not given")
    return parse_checkins(config.dataset)


def stream_split(config: RunConfig, records=None):
    """Train and test events of the configured slice of ``records``.

    ``records`` is the whole stream; it is read from ``config.dataset``
    when not given.
    """
    if records is None:
        records = _read_stream(config)
    records = records[config.stream_offset : config.stream_offset + config.stream_length]
    if not records:
        raise DataError("empty stream slice")
    return split_stream(records, config.split_fraction)


# -- catalog -------------------------------------------------------------------


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
        """Users and POIs by first appearance; a POI's zone is its first record's cell."""
        cat = cls()
        for r in records:
            if r.user not in cat.users:
                _check_name(r.user)
                cat.users[r.user] = len(cat.users)
            if r.venue not in cat.venues:
                _check_name(r.venue)
                _check_name(r.category_name)
                check_coords(r.lat, r.lon)
                cell = (floor(r.lat / cell_deg), floor(r.lon / cell_deg))
                cat._add_poi(r.venue, r.category_name, r.lat, r.lon, cell)
        return cat

    def _add_poi(self, venue: str, category: str, lat: float, lon: float, cell: tuple) -> None:
        """The next POI index for a new venue; a new category or zone cell gets its next one."""
        idx = len(self.venues)
        self.venues[venue] = idx
        self.raw_venues.append(venue)
        self.poi_info.append(PoiInfo(idx, category, lat, lon))
        self.poi_category.append(self.categories.setdefault(category, len(self.categories)))
        self.poi_zone.append(self.zones.setdefault(cell, len(self.zones)))

    def skeleton(self):
        return [
            (i, self.poi_category[i], self.poi_zone[i])
            for i in range(len(self.poi_info))
        ]

    def to_tsv(self) -> str:
        out = io.StringIO()
        for u in self.users:
            out.write(f"U\t{u}\n")
        cells = list(self.zones)  # in index order
        for venue, info, z in zip(self.raw_venues, self.poi_info, self.poi_zone):
            x, y = cells[z]
            out.write(f"P\t{venue}\t{x}\t{y}\t{info.lat!r}\t{info.lon!r}\t{info.category}\n")
        return out.getvalue()

    @classmethod
    def from_tsv(cls, text: str) -> "Catalog":
        """Parse ``to_tsv`` output; ``IngestionError`` names the first bad line."""
        cat = cls()
        for no, line in enumerate(text.split("\n"), 1):  # a name may hold what splitlines breaks at
            if line:
                try:
                    cat._read_line(line.split("\t"))
                except (ValueError, DataError) as exc:
                    raise IngestionError(f"line {no}: {exc}") from None
        return cat

    def _read_line(self, parts: list[str]) -> None:
        tag = parts[0]
        if tag not in _TSV_FIELDS:
            raise ValueError(f"unknown tag {tag!r}")
        if len(parts) != _TSV_FIELDS[tag]:
            raise ValueError(f"{tag} line has {len(parts)} fields, want {_TSV_FIELDS[tag]}")
        if tag == "U":
            if parts[1] in self.users:
                raise ValueError(f"duplicate user {parts[1]!r}")
            self.users[parts[1]] = len(self.users)
        else:
            _, venue, x, y, lat, lon, category = parts
            if venue in self.venues:
                raise ValueError(f"duplicate venue {venue!r}")
            lat, lon = float(lat), float(lon)
            check_coords(lat, lon)
            self._add_poi(venue, category, lat, lon, (int(x), int(y)))


# fields per catalog line, by tag
_TSV_FIELDS = {"U": 2, "P": 7}


def _check_name(name: str) -> None:
    """A name ``to_tsv`` can write: no tab or line break."""
    if any(ch in name for ch in "\t\n\r"):
        raise DataError(f"name {name!r} holds a tab or line break")


def _parse_file(path, parse, *args):
    """``parse(text, *args)`` of the file at ``path``; an ``IngestionError`` names the file."""
    with open(path) as fh:
        text = fh.read()
    try:
        return parse(text, *args)
    except IngestionError as exc:
        raise IngestionError(f"{path}: {exc}") from None


# -- episode log -----------------------------------------------------------------

TRACE_COLUMNS = ("event", "user", "pred", "real", "reward", "r_d", "r_c", "r_p")


@dataclass
class EventRecord:
    index: int
    user: str
    pred_raw: str
    real_raw: str
    pred_idx: int
    real_idx: int
    reward: float
    r_d: float
    r_c: float
    r_p: float


_TYPECODES = {"int": "q", "float": "d"}


class EpisodeLog:
    """The replayed events, one column per ``EventRecord`` field: ints and
    floats unboxed in ``array``s, names as references to the strings that
    the records and the catalog already hold."""

    def __init__(self):
        self._columns = {f.name: array(_TYPECODES[f.type]) if f.type in _TYPECODES else []
                         for f in dc_fields(EventRecord)}

    def add(self, *values) -> None:
        """Append one event, given as its ``EventRecord`` fields in order."""
        for column, value in zip(self._columns.values(), values, strict=True):
            column.append(value)

    def __len__(self) -> int:
        return len(self._columns["index"])

    @property
    def events(self) -> list[EventRecord]:
        """The events as records, built anew on each read."""
        return [EventRecord(*row) for row in zip(*self._columns.values())]

    def to_trace_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(TRACE_COLUMNS)
        for index, user, pred_raw, real_raw, _, _, *rewards in zip(*self._columns.values()):
            writer.writerow([index, user, pred_raw, real_raw, *map(repr, rewards)])
        return out.getvalue()

    def to_eval_log(self, catalog: Catalog, tail: int | None = None) -> metrics_mod.EvalLog:
        pairs = list(zip(self._columns["pred_idx"], self._columns["real_idx"]))
        if tail:
            pairs = pairs[-tail:]
        return [(catalog.poi_info[pred], catalog.poi_info[real]) for pred, real in pairs]


# -- trained artifacts -------------------------------------------------------------


@dataclass
class Artifacts:
    """A trained run: config, catalog, Q-network and the environment.

    The environment owns its agent mode's trained state and its files.
    """

    config: RunConfig
    catalog: Catalog
    net: policy_mod.QNet
    env: _DrprDriver | _RirlDriver

    def save(self, out_dir) -> None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "config.txt"), "w") as fh:
            fh.write(self.config.to_text())
        with open(os.path.join(out_dir, "catalog.tsv"), "w") as fh:
            fh.write(self.catalog.to_tsv())
        self.net.store.save(os.path.join(out_dir, "qnet.bin"))
        self.env.save(out_dir)

    @classmethod
    def load(cls, out_dir, config: RunConfig | None = None) -> "Artifacts":
        if config is None:
            config = RunConfig.from_file(os.path.join(out_dir, "config.txt"))
        catalog = _parse_file(os.path.join(out_dir, "catalog.tsv"), Catalog.from_tsv)
        env = _env_class(config).load(out_dir, config, catalog)
        net = env.new_net(None)
        net.store.load(os.path.join(out_dir, "qnet.bin"))
        return cls(config=config, catalog=catalog, net=net, env=env)


def _load_rng(path) -> np.random.Generator:
    """A generator resumed from the bit-generator state saved at ``path``."""
    rng = np.random.default_rng()
    try:
        with open(path) as fh:
            state = json.load(fh)
        rng.bit_generator.state = state
    except (OSError, ValueError, KeyError, TypeError, OverflowError) as exc:
        raise IngestionError(f"{path}: bad generator state: {exc}") from None
    if rng.bit_generator.state != state:  # the setter silently truncates floats
        raise IngestionError(f"{path}: bad generator state")
    return rng


# -- the environment drivers -------------------------------------------------------
#
# One class per agent mode owns that mode's trained state: it builds it
# (``fresh``), sizes the Q-network for it (``new_net``), persists it
# (``save``/``load``), copies it for evaluation (``replica``) and says
# what graph a saved bundle has (``graph``). In the loop it answers
# ``observe`` (the state, the user's candidate POIs and their Q-net
# inputs), takes each real visit in ``advance`` and trains on the
# Bellman step's state gradient in ``feedback``.


def _load_wordvecs(config: RunConfig) -> WordVectors:
    return WordVectors.load(config.wordvecs) if config.wordvecs else WordVectors()


class _DrprDriver:
    """Dynamic-KG environment: the graph and its embedder, updated locally per visit."""

    def __init__(self, config: RunConfig, catalog: Catalog, kg: DynamicKg,
                 embedder: embed_mod.Embedder):
        self.config = config
        self.catalog = catalog
        self.kg = kg
        self.embedder = embedder
        self.last_affected: frozenset = frozenset()
        self.static = config.agent_mode == "drpr-static"

    @classmethod
    def fresh(cls, config: RunConfig, catalog: Catalog, rng: np.random.Generator):
        window = 10**9 if config.agent_mode == "drpr-noexit" else config.w
        kg = kgstore.build_static(catalog.skeleton(), window=window)
        embedder = embed_mod.Embedder(
            kg, d=config.d, layers=config.gcn_layers, margin=config.margin, rng=rng,
        )
        embedder.train_init(config.init_epochs, config.lr_embed, config.neg_per_pos)
        return cls(config, catalog, kg, embedder)

    def new_net(self, rng: np.random.Generator | None) -> policy_mod.QNet:
        d = self.config.d
        return policy_mod.QNet(dim_state=2 * d, dim_action=d, hidden=self.config.qnet_hidden, rng=rng)

    def replica(self, config: RunConfig, rng: np.random.Generator) -> "_DrprDriver":
        """A copy to evaluate under ``config``; replaying it leaves this one as it is."""
        kg, embedder = copy.deepcopy((self.kg, self.embedder))
        env = _DrprDriver(config, self.catalog, kg, embedder)
        env.static = env.static or config.frozen_eval
        return env

    @staticmethod
    def graph(out_dir, config: RunConfig, catalog: Catalog) -> DynamicKg:
        """The saved graph, replayed on the catalog's skeleton."""
        return _parse_file(
            os.path.join(out_dir, "kg_snapshot.txt"), kgstore.import_snapshot, catalog.skeleton()
        )

    def save(self, out_dir) -> None:
        with open(os.path.join(out_dir, "kg_snapshot.txt"), "w") as fh:
            fh.write(self.kg.export_snapshot())
        self.embedder.table.save(os.path.join(out_dir, "embeddings.bin"), self.kg.keys)
        self.embedder.enc.store.save(os.path.join(out_dir, "encoder.bin"))
        with open(os.path.join(out_dir, "embed_rng.json"), "w") as fh:
            json.dump(self.embedder.rng.bit_generator.state, fh)

    @classmethod
    def load(cls, out_dir, config: RunConfig, catalog: Catalog) -> "_DrprDriver":
        kg = cls.graph(out_dir, config, catalog)
        path = os.path.join(out_dir, "embeddings.bin")
        table, keys = embed_mod.EmbeddingTable.load(path)
        if table.d != config.d:
            raise CompatibilityError(f"{path}: dimension {table.d} != configured d {config.d}")
        objects = set(kg.object_keys())
        relations = {kgstore.rel_key(r) for r in kgstore.RelType}
        for key in sorted(objects ^ set(keys)):
            if key in objects:
                raise CompatibilityError(f"{path}: no row for graph object {key}")
            if key not in relations:  # an evicted relation kind keeps its row
                raise CompatibilityError(f"{path}: row for {key}, which the graph lacks")
        kg.index(keys)
        enc = embed_mod.ContextEncoder(config.d, config.gcn_layers)
        enc.store.load(os.path.join(out_dir, "encoder.bin"))
        embedder = embed_mod.Embedder(
            kg, margin=config.margin, table=table, enc=enc,
            rng=_load_rng(os.path.join(out_dir, "embed_rng.json")),
        )
        return cls(config, catalog, kg, embedder)

    def advance(self, user_idx: int, poi_idx: int, ts: float) -> None:
        if self.static:
            return
        delta = self.kg.apply_visit(user_idx, poi_idx, ts)
        self.embedder.incremental_update(
            delta,
            steps=self.config.incr_steps,
            lr=self.config.lr_embed,
            max_triples=self.config.max_incr_triples,
        )
        self.last_affected = delta.affected

    def observe(self, user_idx: int):
        """The pooled state, the user's candidate POIs (every POI for
        drpr-nocand) and their Q-net inputs: joint embeddings, one row per POI."""
        state = self.embedder.pool_state()
        if self.config.agent_mode == "drpr-nocand":
            pois = range(len(self.catalog.poi_info))
        else:
            pois = cand_mod.generate_candidates(self.kg, user_idx, self.config.k).pois
        kind = int(EntityKind.POI)
        rows = [self.kg.rows[(kind, p)] for p in pois]
        return state, pois, self.embedder.joint_all()[rows]

    def feedback(self, d_state) -> None:
        if self.last_affected:
            self.embedder.state_feedback(d_state, self.last_affected, self.config.lr_feedback)


class _RirlDriver:
    """Legacy environment: gated user/spatial updates with traffic context.

    Owns the update-rule weights, the user vectors and the spatial representation.
    """

    def __init__(self, config: RunConfig, catalog: Catalog, rng: np.random.Generator | None,
                 params: legacy_mod.LegacyParams, users: dict[int, np.ndarray],
                 rep: legacy_mod.SpatialKgRep):
        self.config = config
        self.catalog = catalog
        self.rng = rng  # draws the vectors of users seen for the first time
        self.params = params
        self.users = users
        self.rep = rep
        self.traffic = legacy_mod.TrafficBins(
            len(catalog.zones), bin_seconds=config.legacy_bin_hours * 3600.0
        )
        self.last_zone: dict[int, int] = {}
        # the last `advance`'s (temporal cache, user cache, spatial update), None before it
        self.tape = None
        self.static = False  # set on a frozen_eval replica: `advance` changes nothing
        self.columns = np.arange(len(catalog.poi_info))

    @classmethod
    def fresh(cls, config: RunConfig, catalog: Catalog, rng: np.random.Generator):
        n = config.legacy_n
        params = legacy_mod.LegacyParams(n, max(len(catalog.zones), 1), rng)
        rep = legacy_mod.SpatialKgRep.from_catalog(catalog.skeleton(), n, rng)
        return cls(config, catalog, rng, params, {}, rep)

    def new_net(self, rng: np.random.Generator | None) -> policy_mod.QNet:
        return policy_mod.QNet(
            dim_state=4 * self.config.legacy_n, hidden=self.config.qnet_hidden,
            mode=policy_mod.VANILLA, n_actions=len(self.catalog.poi_info), rng=rng,
        )

    def replica(self, config: RunConfig, rng: np.random.Generator) -> "_RirlDriver":
        """A copy to evaluate under ``config``, drawing new users from ``rng``.

        The traffic starts empty; the weights are shared, as evaluation never trains them.
        """
        users, rep = copy.deepcopy((self.users, self.rep))
        env = _RirlDriver(config, self.catalog, rng, self.params, users, rep)
        env.static = config.frozen_eval
        return env

    @staticmethod
    def graph(out_dir, config: RunConfig, catalog: Catalog) -> DynamicKg:
        """This mode keeps no graph: the catalog's skeleton at the configured window."""
        return kgstore.build_static(catalog.skeleton(), window=config.w)

    def save(self, out_dir) -> None:
        mats = {f"param/{name}": self.params.store.get(name) for name in self.params.store.names()}
        mats.update({f"rep/{name}": self.rep.store.get(name) for name in self.rep.store.names()})
        mats.update({f"user/{uid}": vec for uid, vec in self.users.items()})
        save_matrices(os.path.join(out_dir, "legacy.bin"), mats)

    @classmethod
    def load(cls, out_dir, config: RunConfig, catalog: Catalog) -> "_RirlDriver":
        """The saved state; it draws no new user until ``replica`` gives it a generator."""
        n = config.legacy_n
        env = cls.fresh(config, catalog, np.random.default_rng(0))  # values overwritten below
        env.rng = None
        path = os.path.join(out_dir, "legacy.bin")
        stores = {"param": {}, "rep": {}}
        users = {f"user/{i}": i for i in range(len(catalog.users))}  # the names `save` writes
        for name, arr in load_matrices(path).items():
            kind, _, rest = name.partition("/")
            if kind in stores:
                stores[kind][rest] = arr
            elif name in users:
                if arr.shape != (n,):
                    raise IngestionError(f"{path}: entry {name!r} has shape {arr.shape}, want ({n},)")
                env.users[users[name]] = arr
            else:
                raise IngestionError(f"{path}: unknown entry {name!r}")
        env.params.store.load_exact(stores["param"], path, prefix="param/")
        env.rep.store.load_exact(stores["rep"], path, prefix="rep/")
        return env

    def _user_vec(self, user_idx: int) -> np.ndarray:
        if user_idx not in self.users:
            self.users[user_idx] = self.rng.uniform(0.25, 0.75, size=self.config.legacy_n)
        return self.users[user_idx]

    def advance(self, user_idx: int, poi_idx: int, ts: float) -> None:
        if self.static:
            return
        zone = self.catalog.poi_zone[poi_idx]
        self.traffic.record(self.last_zone.get(user_idx), zone, ts)
        self.last_zone[user_idx] = zone
        t_tilde, t_cache = legacy_mod.transform_temporal(self.traffic.matrix(), self.params)
        u_old = self._user_vec(user_idx).copy()
        self.users[user_idx], u_cache = legacy_mod.update_user(
            u_old, self.rep.heads[poi_idx], t_tilde, self.params
        )
        update = legacy_mod.update_spatial(self.rep, poi_idx, u_old, t_tilde, self.params)
        self.tape = (t_cache, u_cache, update)

    def observe(self, user_idx: int):
        """The user's legacy state; every POI is a candidate, and its Q-net input is its head column."""
        state = legacy_mod.legacy_state(self._user_vec(user_idx), self.rep)
        return state, range(len(self.columns)), self.columns

    def feedback(self, d_state) -> None:
        if self.tape is None:
            return
        t_cache, u_cache, update = self.tape
        # the state is (user, mean head, mean relation, mean tail); each row gets its share
        d_u_state, d_h_mean, _d_rel, d_t_mean = np.split(d_state, 4)
        d_heads = np.broadcast_to(d_h_mean / len(self.rep.heads), self.rep.heads.shape)
        d_tails = np.broadcast_to(d_t_mean / len(self.rep.tails), self.rep.tails.shape)
        # representations themselves move only via the update rules; the
        # feedback trains the rule weights through the last update's tape
        _, d_tt = legacy_mod.update_spatial_grads(self.params, update, d_heads, d_tails)
        _, _, d_tt_user = legacy_mod.update_user_grads(self.params, u_cache, d_u_state)
        legacy_mod.transform_temporal_grads(self.params, t_cache, d_tt + d_tt_user)
        sgd_step(self.params.store, self.config.lr_feedback)


def _env_class(config: RunConfig) -> type[_DrprDriver] | type[_RirlDriver]:
    return _RirlDriver if config.agent_mode == "rirl" else _DrprDriver


# -- training loop -----------------------------------------------------------------


def _replay_stream(
    env: _DrprDriver | _RirlDriver,
    net: policy_mod.QNet,
    events,
    rng: np.random.Generator,
    wv: WordVectors,
    buf: policy_mod.PriorityReplayBuffer | None,
    progress=None,
) -> EpisodeLog:
    """Replay ``events`` in order; with a buffer ``buf`` the agent explores and trains."""
    config, catalog = env.config, env.catalog
    weights = config.reward_weights()
    windows = BaselineWindows(config.b)
    log = EpisodeLog()
    pending: dict[int, policy_mod.Transition] = {}
    n = len(events)
    feedback = env.feedback if config.encoder_feedback else None
    target_net = None
    train_steps = 0
    for l in range(n):
        if progress is not None:
            progress(l)
        rec = events[l]
        if not isfinite(rec.timestamp):
            raise DataError(f"event {l}: timestamp {rec.timestamp} is not finite")
        user_idx = catalog.users[rec.user]
        real_idx = catalog.venues[rec.venue]
        state, pois, inputs = env.observe(user_idx)
        q = None  # the Q of `inputs`, once the TD priority has scored it
        if buf is not None and user_idx in pending:
            t = pending.pop(user_idx)
            t.next_state = state
            t.next_actions = inputs
            q = buf.push(t, net, config.gamma)
        epsilon = config.epsilon_at(l, n) if buf is not None else 0.0
        row = policy_mod.select_action(net, state, inputs, epsilon, rng, q)
        action = pois[row]
        parts = component_rewards(
            catalog.poi_info[action], catalog.poi_info[real_idx], wv, config.d_floor_km
        )
        r = compute_reward(parts, weights, windows)
        if buf is not None:
            pending[user_idx] = policy_mod.Transition(
                state=state, action=inputs[row], reward=r,
            )
        log.add(l, rec.user, catalog.raw_venues[action], rec.venue, action, real_idx, r, *parts)
        if buf and config.train_every and (l + 1) % config.train_every == 0:
            if config.target_refresh and train_steps % config.target_refresh == 0:
                target_net = net.clone()
            batch = buf.sample_batch(config.batch_size, rng if config.stochastic_replay else None)
            policy_mod.train_step(
                net, batch, config.gamma, config.lr_q, feedback, target_net=target_net
            )
            train_steps += 1
        env.advance(user_idx, real_idx, rec.timestamp)
    if buf is not None:
        for user_idx in list(pending):
            t = pending.pop(user_idx)
            t.terminal = True
            buf.push(t, net, config.gamma)
    return log


def run_training(
    config: RunConfig, records=None, progress=None
) -> tuple[Artifacts, EpisodeLog, dict]:
    """Train on the earliest split of the stream; returns artifacts + log."""
    started = _time.perf_counter()
    rng = np.random.default_rng(config.seed)
    train_events, test_events = stream_split(config, records)
    catalog = Catalog.build(train_events + test_events, config.cell_deg)
    wv = _load_wordvecs(config)
    env = _env_class(config).fresh(config, catalog, rng)
    net = env.new_net(rng)
    buf = policy_mod.PriorityReplayBuffer(config.buffer_capacity, config.priority_mode)
    log = _replay_stream(env, net, train_events, rng, wv, buf, progress=progress)
    report = {
        "events": len(log),
        "mean_reward": float(np.mean([e.reward for e in log.events])) if len(log) else 0.0,
        "wall_s": _time.perf_counter() - started,
    }
    return Artifacts(config=config, catalog=catalog, net=net, env=env), log, report


def run_eval(
    config: RunConfig,
    artifacts: Artifacts,
    test_records,
) -> tuple[dict, EpisodeLog]:
    """Replay the test stream greedily; the environment keeps evolving."""
    started = _time.perf_counter()
    rng = np.random.default_rng(config.seed + 10_000)
    catalog = artifacts.catalog
    for rec in test_records:
        if rec.user not in catalog.users or rec.venue not in catalog.venues:
            raise CompatibilityError(
                f"test event references unknown user/venue: {rec.user}/{rec.venue}"
            )
    wv = _load_wordvecs(config)
    # the replay advances the environment, so it runs on a replica and a
    # second call on the same artifacts starts from the same state
    env = artifacts.env.replica(config, rng)
    log = _replay_stream(env, artifacts.net, test_records, rng, wv, None)
    eval_log = log.to_eval_log(catalog)
    report = {
        "prec_cat": metrics_mod.prec_cat(eval_log),
        "rec_cat": metrics_mod.rec_cat(eval_log),
        "avg_sim": metrics_mod.avg_sim(eval_log, wv),
        "avg_dist_km": metrics_mod.avg_dist(eval_log),
        "wall_s": _time.perf_counter() - started,
    }
    return report, log


def sweep_reward(config: RunConfig, grid_steps: int, records=None) -> list[dict]:
    """Train/eval once per reward-weight grid point; returns CSV-ready rows."""
    if grid_steps < 1:
        raise ConfigError("grid_steps must be >= 1")
    if records is None:
        records = _read_stream(config)
    _, test_events = stream_split(config, records)
    rows = []
    for i in range(grid_steps + 1):
        for j in range(grid_steps + 1 - i):
            ld = i / grid_steps
            lc = j / grid_steps
            lp = max(0.0, 1.0 - ld - lc)
            cfg = replace(config, lambda_d=ld, lambda_c=lc, lambda_p=lp)
            artifacts, _, _ = run_training(cfg, records=records)
            report, _ = run_eval(cfg, artifacts, test_events)
            rows.append(
                {
                    "lambda_d": ld,
                    "lambda_c": lc,
                    "lambda_p": lp,
                    **{k: report[k] for k in ("prec_cat", "rec_cat", "avg_sim", "avg_dist_km", "wall_s")},
                }
            )
    return rows


def sweep_rows_to_csv(rows: list[dict]) -> str:
    out = io.StringIO()
    cols = ["lambda_d", "lambda_c", "lambda_p", "prec_cat", "rec_cat", "avg_sim", "avg_dist_km", "wall_s"]
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(cols)
    for row in rows:
        writer.writerow([repr(float(row[c])) for c in cols])
    return out.getvalue()


def inspect_kg(artifacts_dir) -> dict:
    """Entity/triple counts of a saved run's graph, as its agent mode has it."""
    config = RunConfig.from_file(os.path.join(artifacts_dir, "config.txt"))
    catalog = _parse_file(os.path.join(artifacts_dir, "catalog.tsv"), Catalog.from_tsv)
    kg = _env_class(config).graph(artifacts_dir, config, catalog)
    triples = kg.triples()
    by_rel: dict[str, int] = {}
    for t in triples:
        name = kgstore._REL_NAMES[kgstore.RelType(t.rel)]
        by_rel[name] = by_rel.get(name, 0) + 1
    top = kg.by_visits()[:5]
    return {
        "window_capacity": kg.window_capacity,
        "pois": len(kg.entities(EntityKind.POI)),
        "users": len(kg.entities(EntityKind.USER)),
        "categories": len(kg.entities(EntityKind.CATEGORY)),
        "zones": len(kg.entities(EntityKind.ZONE)),
        "triples": len(triples),
        "triples_by_relation": by_rel,
        "top_pois_by_visits": [(p, kg.visit_counts.get(p, 0)) for p in top],
    }


def write_replay_outputs(out_dir, log: EpisodeLog, report: dict, prefix: str = "") -> None:
    """A replay's ``{prefix}trace.csv`` and ``{prefix}report.json`` in ``out_dir``."""
    with open(os.path.join(out_dir, f"{prefix}trace.csv"), "w") as fh:
        fh.write(log.to_trace_csv())
    with open(os.path.join(out_dir, f"{prefix}report.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_run_outputs(out_dir, artifacts: Artifacts, log: EpisodeLog, report: dict) -> None:
    artifacts.save(out_dir)  # creates out_dir
    write_replay_outputs(out_dir, log, report)
