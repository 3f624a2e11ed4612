"""End-to-end pipeline: ingestion, zones, splits, the closed training loop.

The stream replay follows one strict per-event order: apply the previous
real event to the environment, locally retrain the touched embeddings,
pool the state, generate candidates for the incoming user, predict,
score against the real event, buffer the transition, and periodically
train the agent (optionally feeding the Bellman gradient back into the
representation). Evaluation replays the held-out tail with exploration
off while the environment keeps evolving.

All randomness flows from one seeded generator, so identical configs
reproduce byte-identical traces.
"""

from __future__ import annotations

import csv
import io
import json
import os
import time as _time
from dataclasses import dataclass, field, fields as dc_fields
from datetime import datetime
from math import floor
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
)
from .kgstore import DynamicKg, EntityKind
from .numkit import sgd_step
from .reward import (
    BaselineWindows,
    PoiInfo,
    RewardWeights,
    WordVectors,
    component_rewards,
    compute_reward,
)

WORDVEC_ENV = "GEOSTREAM_WORDVECS"

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
        if not 0.0 < self.split_fraction < 1.0:
            raise ConfigError(f"split_fraction {self.split_fraction} outside (0, 1)")
        for name in ("stream_length", "d", "k", "w", "b", "buffer_capacity", "batch_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
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
                values[key.strip()] = val.strip()
        return cls.from_mapping(values)

    @classmethod
    def from_mapping(cls, values: dict[str, str]) -> "RunConfig":
        known = {f.name: f for f in dc_fields(cls)}
        kwargs = {}
        for key, val in values.items():
            if key not in known:
                raise ConfigError(f"unknown config key {key!r}")
            typ = known[key].type
            if typ in ("int", int):
                kwargs[key] = int(val)
            elif typ in ("float", float):
                kwargs[key] = float(val)
            elif typ in ("bool", bool):
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


def _parse_timestamp(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return datetime.strptime(text, _FOURSQUARE_FMT).timestamp()


def parse_checkins(path) -> list[CheckInRecord]:
    """Read tab-separated check-ins, skipping (and counting) bad lines.

    Field order: user, venue, category id, category name, latitude,
    longitude, timestamp (epoch seconds or a Foursquare-style string;
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
                if not (-90 <= lat <= 90 and -180 <= lon <= 180):
                    raise ValueError("coordinates out of range")
                ts = _parse_timestamp(parts[-1])
                records.append(
                    CheckInRecord(parts[0], parts[1], parts[2], parts[3], lat, lon, ts)
                )
            except (ValueError, IndexError):
                malformed += 1
    if total and malformed > 0.1 * total:
        raise FormatError(f"{malformed}/{total} malformed lines in {path}")
    records.sort(key=lambda r: r.timestamp)
    parse_checkins.last_malformed = malformed  # type: ignore[attr-defined]
    return records


def derive_zones(records, cell_deg: float) -> dict[str, tuple[int, int]]:
    """Grid cell per venue from its first record's coordinates."""
    if cell_deg <= 0:
        raise ConfigError("cell_deg must be positive")
    zones: dict[str, tuple[int, int]] = {}
    for r in records:
        if r.venue not in zones:
            zones[r.venue] = (floor(r.lat / cell_deg), floor(r.lon / cell_deg))
    return zones


def split_stream(records, fraction: float):
    """Earliest floor(fraction * n) records for training, rest for testing."""
    cut = floor(fraction * len(records))
    return records[:cut], records[cut:]


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
    raw_users: list[str] = field(default_factory=list)
    raw_venues: list[str] = field(default_factory=list)

    @classmethod
    def build(cls, records, cell_deg: float) -> "Catalog":
        cat = cls()
        zone_of = derive_zones(records, cell_deg)
        for r in records:
            if r.user not in cat.users:
                cat.users[r.user] = len(cat.users)
                cat.raw_users.append(r.user)
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

    def skeleton(self):
        return [
            (i, self.poi_category[i], self.poi_zone[i])
            for i in range(len(self.poi_info))
        ]

    def info(self, poi_idx: int) -> PoiInfo:
        return self.poi_info[poi_idx]

    def to_tsv(self) -> str:
        out = io.StringIO()
        for u in self.raw_users:
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
        cat = cls()
        cat_names: dict[int, str] = {}
        for line in text.splitlines():
            if not line:
                continue
            parts = line.split("\t")
            tag = parts[0]
            if tag == "U":
                cat.users[parts[1]] = len(cat.users)
                cat.raw_users.append(parts[1])
            elif tag == "C":
                cat_names[int(parts[1])] = parts[2]
                cat.categories[parts[2]] = int(parts[1])
            elif tag == "Z":
                cat.zones[(int(parts[2]), int(parts[3]))] = int(parts[1])
            elif tag == "P":
                idx = len(cat.venues)
                cat.venues[parts[1]] = idx
                cat.raw_venues.append(parts[1])
                cat.poi_category.append(int(parts[2]))
                cat.poi_zone.append(int(parts[3]))
                cat.poi_info.append(
                    PoiInfo(idx, parts[6], float(parts[4]), float(parts[5]))
                )
        return cat


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


@dataclass
class EpisodeLog:
    events: list[EventRecord] = field(default_factory=list)

    def append(self, rec: EventRecord) -> None:
        self.events.append(rec)

    def __len__(self) -> int:
        return len(self.events)

    def to_trace_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(TRACE_COLUMNS)
        for e in self.events:
            writer.writerow(
                [e.index, e.user, e.pred_raw, e.real_raw,
                 repr(e.reward), repr(e.r_d), repr(e.r_c), repr(e.r_p)]
            )
        return out.getvalue()

    def to_eval_log(self, catalog: Catalog, tail: int | None = None) -> metrics_mod.EvalLog:
        events = self.events[-tail:] if tail else self.events
        return [(catalog.info(e.pred_idx), catalog.info(e.real_idx)) for e in events]


# -- trained artifacts -------------------------------------------------------------


@dataclass
class Artifacts:
    config: RunConfig
    catalog: Catalog
    kg: DynamicKg
    net: policy_mod.QNet
    embedder: embed_mod.Embedder | None = None
    legacy_params: legacy_mod.LegacyParams | None = None
    legacy_users: dict[int, np.ndarray] | None = None
    legacy_rep: legacy_mod.SpatialKgRep | None = None

    def save(self, out_dir) -> None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "config.txt"), "w") as fh:
            fh.write(self.config.to_text())
        with open(os.path.join(out_dir, "catalog.tsv"), "w") as fh:
            fh.write(self.catalog.to_tsv())
        with open(os.path.join(out_dir, "kg_snapshot.txt"), "w") as fh:
            fh.write(self.kg.export_snapshot())
        self.net.save(os.path.join(out_dir, "qnet.bin"))
        if self.embedder is not None:
            self.embedder.table.save(os.path.join(out_dir, "embeddings.bin"))
            self.embedder.enc.save(os.path.join(out_dir, "encoder.bin"))
        if self.legacy_params is not None:
            from .numkit import save_matrices

            mats = {
                f"param/{n}": self.legacy_params.store.get(n)
                for n in self.legacy_params.store.names()
            }
            mats["meta"] = np.array([self.legacy_params.n, self.legacy_params.m], dtype=float)
            for uid, vec in self.legacy_users.items():
                mats[f"user/{uid}"] = vec
            for pid, vec in self.legacy_rep.heads.items():
                mats[f"head/{pid}"] = vec
            for name, vec in self.legacy_rep.rels.items():
                mats[f"rel/{name}"] = vec
            for (kind, idx), vec in self.legacy_rep.tails.items():
                mats[f"tail/{kind}:{idx}"] = vec
            save_matrices(os.path.join(out_dir, "legacy.bin"), mats)

    @classmethod
    def load(cls, out_dir, config: RunConfig | None = None) -> "Artifacts":
        if config is None:
            config = RunConfig.from_file(os.path.join(out_dir, "config.txt"))
        with open(os.path.join(out_dir, "catalog.tsv")) as fh:
            catalog = Catalog.from_tsv(fh.read())
        with open(os.path.join(out_dir, "kg_snapshot.txt")) as fh:
            kg = kgstore.import_snapshot(fh.read())
        net = policy_mod.QNet.load(os.path.join(out_dir, "qnet.bin"))
        art = cls(config=config, catalog=catalog, kg=kg, net=net)
        emb_path = os.path.join(out_dir, "embeddings.bin")
        if os.path.exists(emb_path):
            table = embed_mod.EmbeddingTable.load(emb_path)
            enc = embed_mod.ContextEncoder.load(os.path.join(out_dir, "encoder.bin"))
            if table.d != config.d:
                raise CompatibilityError(
                    f"artifact dimension {table.d} != configured d {config.d}"
                )
            art.embedder = embed_mod.Embedder(
                kg, margin=config.margin, rng=np.random.default_rng(config.seed + 1),
                table=table, enc=enc,
            )
        legacy_path = os.path.join(out_dir, "legacy.bin")
        if os.path.exists(legacy_path):
            from .numkit import load_matrices

            mats = load_matrices(legacy_path)
            n, m = (int(v) for v in mats.pop("meta"))
            if n != config.legacy_n:
                raise CompatibilityError(
                    f"legacy dimension {n} != configured legacy_n {config.legacy_n}"
                )
            params = legacy_mod.LegacyParams(n, m)
            rep = legacy_mod.SpatialKgRep.from_catalog(
                catalog.skeleton(), n, np.random.default_rng(0)
            )
            users: dict[int, np.ndarray] = {}
            for name, arr in mats.items():
                kind, _, rest = name.partition("/")
                if kind == "param":
                    params.store.get(rest)[...] = arr
                elif kind == "user":
                    users[int(rest)] = arr
                elif kind == "head":
                    rep.heads[int(rest)] = arr
                elif kind == "rel":
                    rep.rels[rest] = arr
                elif kind == "tail":
                    tk, _, ti = rest.partition(":")
                    rep.tails[(tk, int(ti))] = arr
            art.legacy_params = params
            art.legacy_users = users
            art.legacy_rep = rep
        return art


# -- the environment drivers -------------------------------------------------------


def _load_wordvecs(config: RunConfig) -> WordVectors:
    path = os.environ.get(WORDVEC_ENV, "") or config.wordvecs
    if path:
        return WordVectors.load(path)
    return WordVectors()


class _DrprDriver:
    """Dynamic-KG environment: graph deltas plus local embedding updates."""

    def __init__(self, config: RunConfig, catalog: Catalog, rng: np.random.Generator,
                 kg: DynamicKg | None = None, embedder: embed_mod.Embedder | None = None):
        self.config = config
        self.catalog = catalog
        window = 10**9 if config.agent_mode == "drpr-noexit" else config.w
        self.kg = kg if kg is not None else kgstore.build_static(catalog.skeleton(), window=window)
        if embedder is not None:
            self.embedder = embedder
        else:
            self.embedder = embed_mod.Embedder(
                self.kg, d=config.d, layers=config.gcn_layers,
                margin=config.margin, rng=rng,
            )
            self.embedder.train_init(config.init_epochs, config.lr_embed, config.neg_per_pos)
        self.last_affected: frozenset = frozenset()
        self.static = config.agent_mode == "drpr-static"

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

    def state(self, user_idx: int) -> np.ndarray:
        return self.embedder.pool_state()

    def candidates_for(self, user_idx: int) -> cand_mod.CandidateSet:
        if self.config.agent_mode == "drpr-nocand":
            return cand_mod.full_candidate_set(self.kg)
        return cand_mod.generate_candidates(self.kg, user_idx, self.config.k)

    def action_vectors(self, cand: cand_mod.CandidateSet) -> dict[int, np.ndarray]:
        return {
            p: self.embedder.joint_cached((int(EntityKind.POI), p)) for p in cand.pois
        }

    def feedback(self, batch, d_states) -> None:
        if self.static or not self.last_affected:
            return
        mean_grad = np.mean(d_states, axis=0)
        self.embedder.state_feedback(mean_grad, self.last_affected, self.config.lr_feedback)


class _RirlDriver:
    """Legacy environment: gated user/spatial updates with traffic context."""

    def __init__(self, config: RunConfig, catalog: Catalog, rng: np.random.Generator,
                 params=None, users=None, rep=None):
        self.config = config
        self.catalog = catalog
        self.rng = rng
        n = config.legacy_n
        m = max(len(catalog.zones), 1)
        self.params = params if params is not None else legacy_mod.LegacyParams(n, m, rng)
        self.rep = rep if rep is not None else legacy_mod.SpatialKgRep.from_catalog(
            catalog.skeleton(), n, rng
        )
        self.users: dict[int, np.ndarray] = users if users is not None else {}
        self.traffic = legacy_mod.TrafficBins(
            range(len(catalog.zones)), bin_seconds=config.legacy_bin_hours * 3600.0
        )
        self.last_zone: dict[int, int] = {}
        self.last_update: legacy_mod.SpatialUpdate | None = None
        self.last_user_cache = None

    def _user_vec(self, user_idx: int) -> np.ndarray:
        if user_idx not in self.users:
            self.users[user_idx] = self.rng.uniform(0.25, 0.75, size=self.config.legacy_n)
        return self.users[user_idx]

    def advance(self, user_idx: int, poi_idx: int, ts: float) -> None:
        zone = self.catalog.poi_zone[poi_idx]
        self.traffic.record(self.last_zone.get(user_idx), zone, ts)
        self.last_zone[user_idx] = zone
        t_tilde, self._t_cache = legacy_mod.transform_temporal(
            self.traffic.matrix(), self.params
        )
        u_old = self._user_vec(user_idx).copy()
        h_old = self.rep.heads[poi_idx]
        u_new, self.last_user_cache = legacy_mod.update_user(
            u_old, h_old, t_tilde, self.params
        )
        self.users[user_idx] = u_new
        self.last_update = legacy_mod.update_spatial(
            self.rep, poi_idx, u_old, t_tilde, self.params
        )

    def state(self, user_idx: int) -> np.ndarray:
        return legacy_mod.legacy_state(self._user_vec(user_idx), self.rep)

    def candidates_for(self, user_idx: int) -> cand_mod.CandidateSet:
        pois = tuple(range(len(self.catalog.poi_info)))
        return cand_mod.CandidateSet(pois, tuple("pop" for _ in pois), len(pois) or 1)

    def action_vectors(self, cand) -> None:
        return None

    def feedback(self, batch, d_states) -> None:
        if self.last_update is None:
            return
        n = self.config.legacy_n
        ds = np.mean(d_states, axis=0)
        d_u_state, d_h_mean, _d_rel, d_t_mean = (
            ds[:n], ds[n : 2 * n], ds[2 * n : 3 * n], ds[3 * n :]
        )
        d_heads = {p: d_h_mean / len(self.rep.heads) for p in self.last_update.touched_heads}
        d_tails = {k: d_t_mean / len(self.rep.tails) for k in self.last_update.touched_tails}
        # representations themselves move only via the update rules; the
        # feedback trains the rule weights through the last update's tape
        _, d_tt = legacy_mod.update_spatial_grads(
            self.params, self.last_update, d_heads, d_tails
        )
        if self.last_user_cache is not None:
            _, _, dtt2 = legacy_mod.update_user_grads(
                self.params, self.last_user_cache, d_u_state
            )
            d_tt = d_tt + dtt2
        legacy_mod.transform_temporal_grads(self.params, self._t_cache, d_tt)
        sgd_step(self.params.store, self.config.lr_feedback)


def _make_driver(config: RunConfig, catalog: Catalog, rng: np.random.Generator):
    if config.agent_mode == "rirl":
        return _RirlDriver(config, catalog, rng)
    return _DrprDriver(config, catalog, rng)


# -- training loop -----------------------------------------------------------------


def _replay_stream(
    driver,
    net: policy_mod.QNet,
    events,
    catalog: Catalog,
    config: RunConfig,
    rng: np.random.Generator,
    wv: WordVectors,
    weights: RewardWeights,
    windows: BaselineWindows,
    buf: policy_mod.PriorityReplayBuffer | None,
    train: bool,
    agent=None,
    progress=None,
    start_index: int = 0,
) -> EpisodeLog:
    log = EpisodeLog()
    pending: dict[int, policy_mod.Transition] = {}
    prev: tuple[int, int, float] | None = None
    n = len(events)
    feedback = None
    if train and config.encoder_feedback:
        feedback = driver.feedback
    target_net = None
    train_steps = 0
    for l in range(n):
        if progress is not None:
            progress(l)
        rec = events[l]
        if prev is not None:
            driver.advance(*prev)
        user_idx = catalog.users[rec.user]
        real_idx = catalog.venues[rec.venue]
        state = driver.state(user_idx)
        cand = driver.candidates_for(user_idx)
        vecs = driver.action_vectors(cand)
        if buf is not None and user_idx in pending:
            t = pending.pop(user_idx)
            t.next_state = state
            t.next_pois = cand.pois
            if vecs is not None:
                t.next_vecs = np.stack([vecs[p] for p in cand.pois])
            buf.push(t, net, config.gamma)
        epsilon = config.epsilon_at(l, n) if train else 0.0
        if agent is not None:
            action = agent(rec, state, cand, rng)
        else:
            action = policy_mod.select_action(net, state, cand, epsilon, rng, vecs)
        parts = component_rewards(
            catalog.info(action), catalog.info(real_idx), wv, config.d_floor_km
        )
        r = compute_reward(parts, weights, windows)
        if buf is not None:
            pending[user_idx] = policy_mod.Transition(
                state=state,
                action_poi=action,
                action_vec=None if vecs is None else vecs[action],
                reward=r,
            )
        log.append(
            EventRecord(
                index=start_index + l,
                user=rec.user,
                pred_raw=catalog.raw_venues[action],
                real_raw=rec.venue,
                pred_idx=action,
                real_idx=real_idx,
                reward=r,
                r_d=parts[0],
                r_c=parts[1],
                r_p=parts[2],
            )
        )
        if (
            train
            and config.train_every
            and (l + 1) % config.train_every == 0
            and buf is not None
            and len(buf)
        ):
            if config.target_refresh and train_steps % config.target_refresh == 0:
                target_net = net.clone()
            batch = buf.sample_batch(
                config.batch_size,
                stochastic=config.stochastic_replay,
                rng=rng if config.stochastic_replay else None,
            )
            policy_mod.train_step(
                net, batch, config.gamma, config.lr_q, feedback, target_net=target_net
            )
            train_steps += 1
        prev = (user_idx, real_idx, rec.timestamp)
    if prev is not None:
        driver.advance(*prev)
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
    if records is None:
        if not config.dataset:
            raise ConfigError("config.dataset is required when records are not given")
        records = parse_checkins(config.dataset)
    records = records[config.stream_offset : config.stream_offset + config.stream_length]
    if not records:
        raise DataError("empty stream slice")
    train_events, _ = split_stream(records, config.split_fraction)
    catalog = Catalog.build(records, config.cell_deg)
    wv = _load_wordvecs(config)
    weights = config.reward_weights()
    windows = BaselineWindows(config.b)
    driver = _make_driver(config, catalog, rng)
    if config.agent_mode == "rirl":
        net = policy_mod.QNet(
            dim_state=4 * config.legacy_n,
            hidden=config.qnet_hidden,
            mode=policy_mod.VANILLA,
            action_ids=tuple(range(len(catalog.poi_info))),
            rng=rng,
        )
    else:
        net = policy_mod.QNet(
            dim_state=2 * config.d,
            dim_action=config.d,
            hidden=config.qnet_hidden,
            rng=rng,
        )
    buf = policy_mod.PriorityReplayBuffer(config.buffer_capacity, config.priority_mode)
    log = _replay_stream(
        driver, net, train_events, catalog, config, rng, wv, weights, windows,
        buf, train=True, progress=progress,
    )
    if isinstance(driver, _DrprDriver):
        artifacts = Artifacts(
            config=config, catalog=catalog, kg=driver.kg, net=net,
            embedder=driver.embedder,
        )
    else:
        artifacts = Artifacts(
            config=config, catalog=catalog,
            kg=kgstore.build_static(catalog.skeleton(), window=config.w), net=net,
            legacy_params=driver.params, legacy_users=driver.users,
            legacy_rep=driver.rep,
        )
    report = {
        "events": len(log),
        "mean_reward": float(np.mean([e.reward for e in log.events])) if len(log) else 0.0,
        "wall_s": _time.perf_counter() - started,
    }
    return artifacts, log, report


def run_eval(
    config: RunConfig,
    artifacts: Artifacts,
    test_records,
    agent=None,
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
    weights = config.reward_weights()
    windows = BaselineWindows(config.b)
    if artifacts.legacy_params is not None:
        driver = _RirlDriver(
            config, catalog, rng,
            params=artifacts.legacy_params,
            users=artifacts.legacy_users,
            rep=artifacts.legacy_rep,
        )
    else:
        if artifacts.embedder is None:
            raise CompatibilityError("artifacts carry no representation module")
        if artifacts.embedder.table.d != config.d:
            raise CompatibilityError(
                f"artifact dimension {artifacts.embedder.table.d} != configured d {config.d}"
            )
        driver = _DrprDriver(config, catalog, rng, kg=artifacts.kg, embedder=artifacts.embedder)
        driver.static = driver.static or config.frozen_eval
    log = _replay_stream(
        driver, artifacts.net, test_records, catalog, config, rng, wv, weights,
        windows, buf=None, train=False, agent=agent,
    )
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
        records = parse_checkins(config.dataset)
    rows = []
    for i in range(grid_steps + 1):
        for j in range(grid_steps + 1 - i):
            ld = i / grid_steps
            lc = j / grid_steps
            lp = max(0.0, 1.0 - ld - lc)
            values = {f.name: getattr(config, f.name) for f in dc_fields(RunConfig)}
            values.update(lambda_d=ld, lambda_c=lc, lambda_p=lp)
            cfg = RunConfig(**values)
            artifacts, _, _ = run_training(cfg, records=list(records))
            slice_ = records[cfg.stream_offset : cfg.stream_offset + cfg.stream_length]
            _, test_events = split_stream(slice_, cfg.split_fraction)
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
    """Entity/triple counts of a stored graph snapshot."""
    with open(os.path.join(artifacts_dir, "kg_snapshot.txt")) as fh:
        kg = kgstore.import_snapshot(fh.read())
    triples = kg.triples()
    by_rel: dict[str, int] = {}
    for t in triples:
        name = kgstore._REL_NAMES[kgstore.RelType(t.rel)]
        by_rel[name] = by_rel.get(name, 0) + 1
    top = kg.popularity(kg.pois)[:5]
    return {
        "window_capacity": kg.window_capacity,
        "pois": len(kg.pois),
        "users": len(kg.users),
        "categories": len(kg.categories),
        "zones": len(kg.zones),
        "triples": len(triples),
        "triples_by_relation": by_rel,
        "top_pois_by_visits": [(p, kg.visit_counts.get(p, 0)) for p in top],
    }


def write_run_outputs(out_dir, artifacts: Artifacts, log: EpisodeLog, report: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    artifacts.save(out_dir)
    with open(os.path.join(out_dir, "trace.csv"), "w") as fh:
        fh.write(log.to_trace_csv())
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
