"""Context-aware translational embedding of the dynamic graph.

Every object (entity or relation kind) carries a raw d-dim vector. Its
joint embedding blends that vector with an encoding of its context, the
star the graph store returns (the object, then its neighbors; a relation
kind alone):

  * the context star is passed through m graph-convolution layers
    with renormalized adjacency (A + I, symmetric degree scaling),
  * an attention layer aggregates the vertex encodings into one context
    vector, scoring each vertex against the object's raw embedding
    through a trainable per-coordinate scale (all-ones at init, i.e. a
    plain dot product),
  * a sigmoid gate mixes the raw vector with the context vector.

Training minimizes a pairwise hinge on the L1 translation residual
``|h* + r* - t*|`` of joint embeddings, with negatives drawn by
corrupting one endpoint inside its entity kind. After a graph delta only
the objects whose context changed are retrained (frozen neighbors still
feed forward passes but receive no update).

All gradients here are hand-derived and checked against central
differences in the test suite.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import kgstore
from .errors import ConfigError, ConsistencyError, TrainingError, UnknownObjectError
from .kgstore import DynamicKg, EntityId, EntityKind, Triple, ent_key, rel_key
from .numkit import ParamStore, relu, row_softmax, sgd_step, sigmoid

ObjKey = tuple[int, int]

_TABLE_MAGIC = b"GSET"


class EmbeddingTable:
    """Raw vectors per object with a per-object version counter."""

    def __init__(self, d: int):
        if d < 1:
            raise ConfigError("embedding dimension must be >= 1")
        self.d = d
        self._vecs: dict[ObjKey, np.ndarray] = {}
        self._versions: dict[ObjKey, int] = {}

    def __contains__(self, key: ObjKey) -> bool:
        return key in self._vecs

    def __len__(self) -> int:
        return len(self._vecs)

    def keys(self) -> list[ObjKey]:
        return sorted(self._vecs)

    def get(self, key: ObjKey) -> np.ndarray:
        try:
            return self._vecs[key]
        except KeyError:
            raise UnknownObjectError(f"no embedding for object {key}") from None

    def version(self, key: ObjKey) -> int:
        try:
            return self._versions[key]
        except KeyError:
            raise UnknownObjectError(f"no embedding for object {key}") from None

    def init_object(self, key: ObjKey, rng: np.random.Generator) -> np.ndarray:
        bound = 6.0 / np.sqrt(self.d)
        vec = rng.uniform(-bound, bound, size=self.d)
        self._vecs[key] = vec
        self._versions[key] = 0
        return vec

    def set(self, key: ObjKey, value) -> None:
        value = np.asarray(value, dtype=np.float64)
        if value.shape != (self.d,):
            raise ConfigError(f"vector for {key} has shape {value.shape}, want ({self.d},)")
        if key in self._vecs and np.array_equal(self._vecs[key], value):
            return
        self._vecs[key] = value.copy()
        self._versions[key] = self._versions.get(key, -1) + 1

    def apply_grad(self, key: ObjKey, grad: np.ndarray, lr: float) -> None:
        step = lr * grad
        if not np.any(step):
            return
        if not np.isfinite(step).all():
            raise TrainingError(f"non-finite embedding update for {key}")
        self._vecs[key] -= step
        self._versions[key] += 1

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(_TABLE_MAGIC)
            fh.write(struct.pack("<IQ", self.d, len(self._vecs)))
            for key in self.keys():
                kind, index = key
                fh.write(struct.pack("<BQ", kind, index))
                fh.write(self._vecs[key].astype("<f8").tobytes())
                fh.write(struct.pack("<Q", self._versions[key]))

    @classmethod
    def load(cls, path) -> "EmbeddingTable":
        with open(path, "rb") as fh:
            magic = fh.read(4)
            if magic != _TABLE_MAGIC:
                raise IOError(f"{path}: not an embedding table (magic {magic!r})")
            d, count = struct.unpack("<IQ", fh.read(12))
            table = cls(d)
            for _ in range(count):
                kind, index = struct.unpack("<BQ", fh.read(9))
                vec = np.frombuffer(fh.read(8 * d), dtype="<f8").astype(np.float64)
                (version,) = struct.unpack("<Q", fh.read(8))
                table._vecs[(kind, index)] = vec
                table._versions[(kind, index)] = version
        return table


class ContextEncoder:
    """GCN weights, attention scale, and the joint-embedding gate."""

    def __init__(self, d: int, layers: int = 2, rng: np.random.Generator | None = None):
        if layers < 1:
            raise ConfigError("encoder needs at least one layer")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.d = d
        self.layers = layers
        self.version = 0
        self.store = ParamStore()
        limit = np.sqrt(6.0 / (d + d))
        for i in range(layers):
            self.store.add(f"gcn/w{i}", rng.uniform(-limit, limit, size=(d, d)))
        self.store.add("att/scale", np.ones(d))
        self.store.add("gate", np.zeros(d))

    def gcn_weight(self, i: int) -> np.ndarray:
        return self.store.get(f"gcn/w{i}")

    @property
    def att_scale(self) -> np.ndarray:
        return self.store.get("att/scale")

    @property
    def gate(self) -> np.ndarray:
        return self.store.get("gate")

    def bump(self) -> None:
        self.version += 1

    def save(self, path) -> None:
        from .numkit import save_matrices

        mats = {name: self.store.get(name) for name in self.store.names()}
        mats["meta"] = np.array([self.d, self.layers], dtype=np.float64)
        save_matrices(path, mats)

    @classmethod
    def load(cls, path) -> "ContextEncoder":
        from .numkit import load_matrices

        mats = load_matrices(path)
        d, layers = (int(v) for v in mats.pop("meta"))
        enc = cls(d, layers)
        for name, arr in mats.items():
            enc.store.get(name)[...] = arr
        return enc


@dataclass
class TrainBatch:
    """Paired positive/negative triples and the hinge margin."""

    pairs: list[tuple[Triple, Triple]]
    margin: float = 1.0

    def __post_init__(self):
        for pos, neg in self.pairs:
            if pos.rel != neg.rel:
                raise ConfigError("negative must keep the positive's relation")
            if (pos.head == neg.head) == (pos.tail == neg.tail):
                raise ConfigError("negative must differ in exactly one endpoint")


def _norm_adjacency(n: int) -> np.ndarray:
    """Renormalized adjacency of the n-node star centred on node 0."""
    a_hat = np.eye(n)
    a_hat[0, 1:] = a_hat[1:, 0] = 1.0
    d_hat = a_hat.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(d_hat)
    return a_hat * inv_sqrt[:, None] * inv_sqrt[None, :]


class Embedder:
    """Bundles a graph, its embedding table, and the context encoder.

    A given ``table`` and ``enc`` are adopted as they are; otherwise fresh
    d-dim ones are drawn from ``rng``, one random vector per graph object.
    """

    def __init__(
        self,
        kg: DynamicKg,
        d: int = 200,
        layers: int = 2,
        margin: float = 1.0,
        rng: np.random.Generator | None = None,
        table: EmbeddingTable | None = None,
        enc: ContextEncoder | None = None,
    ):
        self.kg = kg
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.table = table if table is not None else EmbeddingTable(d)
        self.enc = enc if enc is not None else ContextEncoder(d, layers, self.rng)
        if self.table.d != self.enc.d:
            raise ConfigError(
                f"table dimension {self.table.d} != encoder dimension {self.enc.d}"
            )
        self.margin = margin
        self._joint_cache: dict[ObjKey, tuple[tuple, np.ndarray]] = {}
        if table is None:
            for key in kg.object_keys():
                self.table.init_object(key, self.rng)

    # -- forward / backward ------------------------------------------------

    def _joint_forward(self, nodes) -> tuple[np.ndarray, dict]:
        key = nodes[0]  # every context lists its own object first
        s = _norm_adjacency(len(nodes))
        zs = [np.stack([self.table.get(k) for k in nodes])]
        ms = []
        ps = []
        for i in range(self.enc.layers):
            p = s @ zs[-1]
            m = p @ self.enc.gcn_weight(i)
            ps.append(p)
            ms.append(m)
            zs.append(relu(m))
        zm = zs[-1]
        o = self.table.get(key)
        scores = zm @ (self.enc.att_scale * o)
        alpha = row_softmax(scores.reshape(1, -1))[0]
        cx = zm.T @ alpha
        g = sigmoid(self.enc.gate)
        ostar = g * o + (1.0 - g) * cx
        cache = {
            "key": key,
            "nodes": nodes,
            "s": s,
            "zs": zs,
            "ms": ms,
            "ps": ps,
            "alpha": alpha,
            "cx": cx,
            "g": g,
            "o": o,
        }
        return ostar, cache

    def _joint_backward(self, cache: dict, d_ostar: np.ndarray, grads: dict[ObjKey, np.ndarray]) -> None:
        enc = self.enc
        key, o, cx, g, alpha = (
            cache["key"],
            cache["o"],
            cache["cx"],
            cache["g"],
            cache["alpha"],
        )
        zm = cache["zs"][-1]
        enc.store.accumulate("gate", d_ostar * (o - cx) * g * (1.0 - g))
        d_o = d_ostar * g
        d_cx = d_ostar * (1.0 - g)
        d_alpha = zm @ d_cx
        d_zm = np.outer(alpha, d_cx)
        d_scores = alpha * (d_alpha - float(alpha @ d_alpha))
        q = enc.att_scale * o
        d_zm += np.outer(d_scores, q)
        d_q = zm.T @ d_scores
        enc.store.accumulate("att/scale", d_q * o)
        d_o = d_o + d_q * enc.att_scale
        d_z = d_zm
        for i in reversed(range(enc.layers)):
            d_m = d_z * (cache["ms"][i] > 0)
            enc.store.accumulate(f"gcn/w{i}", cache["ps"][i].T @ d_m)
            d_z = cache["s"].T @ (d_m @ enc.gcn_weight(i).T)
        for row, node in enumerate(cache["nodes"]):
            grads[node] = grads.get(node, 0.0) + d_z[row]
        grads[key] = grads.get(key, 0.0) + d_o

    def joint_of(self, key) -> np.ndarray:
        """Fresh joint embedding of an object (no cache)."""
        return self._joint_forward(self.kg.context_of(key))[0]

    def _signature(self, nodes) -> tuple:
        # a context is the star over its nodes, so they determine it exactly
        return (
            self.enc.version,
            nodes,
            tuple(self.table.version(k) for k in nodes),
        )

    def joint_cached(self, key: ObjKey) -> np.ndarray:
        nodes = self.kg.context_of(key)
        sig = self._signature(nodes)
        hit = self._joint_cache.get(key)
        if hit is not None and hit[0] == sig:
            return hit[1]
        vec = self._joint_forward(nodes)[0]
        self._joint_cache[key] = (sig, vec)
        return vec

    # -- losses --------------------------------------------------------------

    def _triple_forward(self, triple: Triple) -> list[tuple[np.ndarray, dict]]:
        """Joint forwards of a triple's head, relation kind and tail."""
        keys = (ent_key(triple.head), rel_key(triple.rel), ent_key(triple.tail))
        return [self._joint_forward(self.kg.context_of(k)) for k in keys]

    def triple_residual(self, triple: Triple) -> float:
        (h, _), (r, _), (t, _) = self._triple_forward(triple)
        return float(np.abs(h + r - t).sum())

    def margin_loss(self, batch: TrainBatch) -> float:
        total = 0.0
        for pos, neg in batch.pairs:
            total += max(0.0, self.triple_residual(pos) + batch.margin - self.triple_residual(neg))
        return total

    def margin_loss_and_grads(self, batch: TrainBatch) -> tuple[float, dict[ObjKey, np.ndarray]]:
        """Hinge loss plus gradients; encoder grads accumulate in its store."""
        grads: dict[ObjKey, np.ndarray] = {}
        total = 0.0
        for pos, neg in batch.pairs:
            fwd = {}
            for tag, triple in (("pos", pos), ("neg", neg)):
                (h, ch), (r, cr), (t, ct) = self._triple_forward(triple)
                e = h + r - t
                fwd[tag] = (e, ch, cr, ct)
            f_pos = float(np.abs(fwd["pos"][0]).sum())
            f_neg = float(np.abs(fwd["neg"][0]).sum())
            hinge = f_pos + batch.margin - f_neg
            if hinge <= 0.0:
                continue
            total += hinge
            for tag, sign in (("pos", 1.0), ("neg", -1.0)):
                e, ch, cr, ct = fwd[tag]
                de = sign * np.sign(e)
                self._joint_backward(ch, de, grads)
                self._joint_backward(cr, de, grads)
                self._joint_backward(ct, -de, grads)
        return total, grads

    # -- training ----------------------------------------------------------

    def _entity_pool(self, kind: int) -> list[int]:
        kg = self.kg
        if kind == EntityKind.USER:
            return sorted(kg.users)
        if kind in (EntityKind.POI, EntityKind.RPOI):
            return sorted(kg.pois)
        if kind == EntityKind.CATEGORY:
            return sorted(kg.categories)
        return sorted(kg.zones)

    def _corrupt(self, triple: Triple) -> Triple | None:
        sides = [0, 1] if self.rng.random() < 0.5 else [1, 0]
        for side in sides:
            original = triple.head if side == 0 else triple.tail
            pool = self._entity_pool(original.kind)
            if len(pool) < 2:
                continue
            while True:
                pick = pool[int(self.rng.integers(len(pool)))]
                if pick != original.index:
                    break
            swapped = EntityId(original.kind, pick)
            if side == 0:
                return Triple(swapped, triple.rel, triple.tail, triple.time)
            return Triple(triple.head, triple.rel, swapped, triple.time)
        return None

    def make_batch(self, triples, neg_per_pos: int = 1) -> TrainBatch:
        pairs = []
        for pos in triples:
            for _ in range(neg_per_pos):
                neg = self._corrupt(pos)
                if neg is not None:
                    pairs.append((pos, neg))
        return TrainBatch(pairs, self.margin)

    def _apply_grads(self, grads: dict[ObjKey, np.ndarray], lr: float, allowed=None) -> None:
        for key in sorted(grads):
            if allowed is not None and key not in allowed:
                continue
            self.table.apply_grad(key, grads[key], lr)

    def train_init(self, epochs: int, lr: float, neg_per_pos: int = 1) -> np.ndarray:
        """SGD on the hinge loss over the full graph; returns the pooled state."""
        triples = sorted(self.kg.triples(), key=kgstore._triple_sort_key)
        for epoch in range(epochs):
            order = self.rng.permutation(len(triples))
            epoch_loss = 0.0
            for idx in order:
                batch = self.make_batch([triples[int(idx)]], neg_per_pos)
                if not batch.pairs:
                    continue
                loss, grads = self.margin_loss_and_grads(batch)
                epoch_loss += loss
                if not np.isfinite(epoch_loss):
                    raise TrainingError(f"non-finite loss in epoch {epoch}")
                sgd_step(self.enc.store, lr)
                self.enc.bump()
                self._apply_grads(grads, lr)
        return self.pool_state()

    def incremental_update(
        self,
        delta: kgstore.DeltaReport,
        steps: int = 1,
        lr: float = 0.01,
        max_triples: int | None = None,
    ) -> None:
        """Retrain only the objects whose context the delta touched.

        New objects get fresh random vectors first. Frozen neighbors still
        enter forward passes but their vectors never move.
        """
        if delta.version != self.kg.version:
            raise ConsistencyError(
                f"delta version {delta.version} != graph version {self.kg.version}"
            )
        affected = set(delta.affected)
        for key in sorted(affected):
            if key not in self.table:
                self.table.init_object(key, self.rng)
        pool = sorted(
            set(self.kg.triples_incident_to(affected)) | set(delta.added),
            key=kgstore._triple_sort_key,
        )
        if not pool:
            return
        for _ in range(steps):
            if max_triples is not None and len(pool) > max_triples:
                picks = self.rng.choice(len(pool), size=max_triples, replace=False)
                sample = [pool[int(i)] for i in sorted(picks)]
            else:
                sample = pool
            batch = self.make_batch(sample)
            if not batch.pairs:
                continue
            _, grads = self.margin_loss_and_grads(batch)
            self.enc.store.zero_grads()  # encoder is frozen during local updates
            self._apply_grads(grads, lr, allowed=affected)

    # -- state ---------------------------------------------------------------

    def pool_state(self) -> np.ndarray:
        """Mean entity joint embedding concatenated with mean relation joint."""
        if len(self.table) == 0:
            raise ConfigError("cannot pool an empty table")
        ent_sum = np.zeros(self.table.d)
        rel_sum = np.zeros(self.table.d)
        n_ent = n_rel = 0
        for key in self.table.keys():
            vec = self.joint_cached(key)
            if kgstore.key_is_relation(key):
                rel_sum += vec
                n_rel += 1
            else:
                ent_sum += vec
                n_ent += 1
        ent_mean = ent_sum / n_ent if n_ent else ent_sum
        rel_mean = rel_sum / n_rel if n_rel else rel_sum
        return np.concatenate([ent_mean, rel_mean])

    def state_feedback(self, d_state: np.ndarray, affected, lr: float) -> None:
        """Push a state-gradient into the encoder and affected embeddings.

        The pooled state averages joint embeddings, so each affected object
        receives its pooled share of the gradient; the backward pass then
        updates encoder parameters and the affected objects' raw vectors.
        """
        keys = [k for k in sorted(set(affected)) if k in self.table]
        if not keys:
            return
        d = self.table.d
        n_ent = sum(1 for k in self.table.keys() if not kgstore.key_is_relation(k))
        n_rel = len(self.table) - n_ent
        grads: dict[ObjKey, np.ndarray] = {}
        for key in keys:
            if kgstore.key_is_relation(key):
                seed = d_state[d:] / max(n_rel, 1)
            else:
                seed = d_state[:d] / max(n_ent, 1)
            _, cache = self._joint_forward(self.kg.context_of(key))
            self._joint_backward(cache, seed, grads)
        sgd_step(self.enc.store, lr)
        self.enc.bump()
        self._apply_grads(grads, lr, allowed=set(keys))

