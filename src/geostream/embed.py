"""Context-aware translational embedding of the dynamic graph.

Every object (entity or relation kind) carries a raw d-dim vector, one
row of the table's ``(objects, d)`` matrix; the graph's object index says
which. Its joint embedding blends that vector with an encoding of its
context, the star the graph store returns as rows (the object, then its
neighbors; a relation kind alone):

  * the context star is passed through m graph-convolution layers
    with renormalized adjacency (A + I, symmetric degree scaling),
  * an attention layer aggregates the vertex encodings into one context
    vector, scoring each vertex against the object's raw embedding
    through a trainable per-coordinate scale (all-ones at init, i.e. a
    plain dot product),
  * a sigmoid gate mixes the raw vector with the context vector.

For an n-node star the renormalized adjacency has three distinct
entries: 1/n on the centre, 1/sqrt(2n) between the centre and a leaf,
and 1/2 on a leaf. So the stars of any list of objects are encoded in
one pass: their nodes are stacked, each layer is one matrix product plus
per-star sums, and the attention is a softmax per star. The backward
pass runs over the same stacked stars.

Training minimizes a pairwise hinge on the L1 translation residual
``|h* + r* - t*|`` of joint embeddings, with negatives drawn by
corrupting one endpoint inside its entity kind. After a graph delta only
the objects whose context changed are retrained (frozen neighbors still
feed forward passes but receive no update).

All gradients here are hand-derived and checked against central
differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kgstore
from .errors import (
    ConfigError,
    ConsistencyError,
    IngestionError,
    TrainingError,
)
from .kgstore import DynamicKg, EntityId, RelType, Triple, ent_key, rel_key
from .numkit import ParamStore, load_matrices, relu, save_matrices, sgd_step, sigmoid

ObjKey = tuple[int, int]


class EmbeddingTable:
    """Raw vectors of all objects: one ``(n, d)`` matrix ``vecs``, a row per
    row of the graph's object index, and a ``version`` that every write bumps."""

    def __init__(self, d: int):
        if d < 1:
            raise ConfigError("embedding dimension must be >= 1")
        self.d = d
        self.vecs = np.zeros((0, d))
        self.version = 0

    def draw(self, n: int, rng: np.random.Generator) -> None:
        """Grow ``vecs`` to ``n`` rows of uniform random vectors, drawn in row order."""
        if n > len(self.vecs):
            bound = 6.0 / np.sqrt(self.d)
            new = rng.uniform(-bound, bound, size=(n - len(self.vecs), self.d))
            self.vecs = np.concatenate([self.vecs, new])
            self.version += 1

    def step(self, grads: np.ndarray, rows, lr: float) -> None:
        """SGD on the given rows of ``vecs`` with a gradient matrix of the same shape."""
        step = lr * grads[rows]
        if not np.any(step):
            return
        if not np.isfinite(step).all():
            raise TrainingError("non-finite embedding update")
        self.vecs[rows] -= step
        self.version += 1

    def save(self, path, keys) -> None:
        """Save ``vecs`` with ``keys``, the object of each row."""
        keys = np.array(keys, dtype=np.float64).reshape(-1, 2)
        save_matrices(path, {"keys": keys, "vecs": self.vecs})

    @classmethod
    def load(cls, path) -> tuple["EmbeddingTable", list[ObjKey]]:
        """The saved table and the object of each of its rows."""
        mats = load_matrices(path)
        if sorted(mats) != ["keys", "vecs"]:
            raise IngestionError(f"{path}: want entries keys and vecs, found {sorted(mats)}")
        keys, vecs = mats["keys"], mats["vecs"]
        if keys.ndim != 2 or keys.shape[1] != 2 or vecs.ndim != 2:
            raise IngestionError(f"{path}: keys {keys.shape} or vecs {vecs.shape} misshapen")
        if len(keys) != len(vecs):
            raise IngestionError(f"{path}: {len(keys)} keys but {len(vecs)} vectors")
        if not np.array_equal(keys, np.round(keys)):
            raise IngestionError(f"{path}: non-integral object key")
        keys = [(int(k), int(i)) for k, i in keys]
        if len(set(keys)) != len(keys):
            raise IngestionError(f"{path}: duplicate object key")
        table = cls(vecs.shape[1])
        table.vecs = vecs
        return table, keys


class ContextEncoder:
    """GCN weights, attention scale, and the joint-embedding gate."""

    def __init__(self, d: int, layers: int = 2, rng: np.random.Generator | None = None):
        if layers < 1:
            raise ConfigError("encoder needs at least one layer")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.d = d
        self.layers = layers
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


class _Stars:
    """The stars of a key list, stacked node by node.

    ``rows`` holds the table row of each node, ``sizes`` the node count of
    each star, and ``starts`` where each star begins (at its centre).
    """

    def __init__(self, kg: DynamicKg, keys):
        stars = list(map(kg.context_of, keys))
        self.rows = np.concatenate(stars)
        self.sizes = np.fromiter(map(len, stars), dtype=np.intp, count=len(stars))
        self.starts = np.cumsum(self.sizes) - self.sizes
        self.centre_w = (1.0 / self.sizes)[:, None]
        self.cross_w = (1.0 / np.sqrt(2.0 * self.sizes))[:, None]
        self.leaf_w = self.spread(self.cross_w)  # the cross weight at a leaf, 0 at a centre
        self.leaf_w[self.starts] = 0.0

    def spread(self, x: np.ndarray) -> np.ndarray:
        """Each star's row of ``x`` once per node of the star."""
        return np.repeat(x, self.sizes, axis=0)

    def mix(self, x: np.ndarray) -> np.ndarray:
        """The renormalized star adjacency times ``x``, per star. The
        adjacency is symmetric, so the backward pass mixes the same way.

        A leaf takes half of itself plus the cross weight times its centre;
        a centre takes 1/n of itself plus its star's sum of ``leaf_w``
        times each node."""
        xc = x[self.starts]
        out = x * 0.5
        out += self.spread(self.cross_w * xc)
        out[self.starts] = self.centre_w * xc + np.add.reduceat(self.leaf_w * x, self.starts)
        return out

    def sum(self, x: np.ndarray) -> np.ndarray:
        return np.add.reduceat(x, self.starts)


class Embedder:
    """Bundles a graph, its embedding table, and the context encoder.

    A given ``table`` and ``enc`` are adopted as they are; otherwise fresh
    d-dim ones are drawn from ``rng``, a vector per object in sorted order.
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
        # joint embeddings of every row at the graph version, encoder SGD step
        # count and table version; the rows of the stale keys' stars are still to redo
        self._joint_memo: tuple[tuple, np.ndarray] | None = None
        self._stale: set[ObjKey] = set()
        if table is None:
            kg.index(kg.object_keys())
            self.table.draw(len(kg.keys), self.rng)

    # -- forward / backward ------------------------------------------------

    def _forward(self, keys) -> tuple[np.ndarray, dict]:
        """Joint embeddings of ``keys``, one row each, and the tape."""
        enc = self.enc
        st = _Stars(self.kg, keys)
        zs = [np.take(self.table.vecs, st.rows, axis=0)]
        for i in range(enc.layers):
            zs.append(relu(st.mix(zs[-1]) @ enc.gcn_weight(i)))
        zm = zs[-1]
        o = zs[0][st.starts]
        q = st.spread(enc.att_scale * o)
        scores = (zm * q).sum(axis=1)
        e = np.exp(scores - st.spread(np.maximum.reduceat(scores, st.starts)))
        alpha = e / st.spread(st.sum(e))
        cx = st.sum(alpha[:, None] * zm)
        g = sigmoid(enc.gate)
        ostar = g * o + (1.0 - g) * cx
        cache = {"st": st, "zs": zs, "q": q, "alpha": alpha, "cx": cx, "g": g, "o": o}
        return ostar, cache

    def _backward(self, cache: dict, d_ostar: np.ndarray, *, encoder: bool = True) -> np.ndarray:
        """Raw-vector grads, one row per table row; encoder grads into its
        store unless ``encoder`` is off."""
        enc = self.enc
        st, o, q, cx, g, alpha = (cache[k] for k in ("st", "o", "q", "cx", "g", "alpha"))
        zm = cache["zs"][-1]
        if encoder:
            enc.store.accumulate("gate", (d_ostar * (o - cx) * g * (1.0 - g)).sum(axis=0))
        d_cx = st.spread(d_ostar * (1.0 - g))
        d_alpha = (zm * d_cx).sum(axis=1)
        d_scores = alpha * (d_alpha - st.spread(st.sum(alpha * d_alpha)))
        d_z = alpha[:, None] * d_cx + d_scores[:, None] * q
        d_q = st.sum(d_scores[:, None] * zm)
        if encoder:
            enc.store.accumulate("att/scale", (d_q * o).sum(axis=0))
        for i in reversed(range(enc.layers)):
            # the tape keeps only the layer outputs: relu(m) > 0 iff m > 0,
            # and the weight gradient recomputes the mixed input
            d_m = d_z * (cache["zs"][i + 1] > 0)
            if encoder:
                enc.store.accumulate(f"gcn/w{i}", st.mix(cache["zs"][i]).T @ d_m)
            d_z = st.mix(d_m @ enc.gcn_weight(i).T)
        d_z[st.starts] += d_ostar * g + d_q * enc.att_scale
        # each table row sums its nodes from 0 in node order, as np.add.at into zeros
        d = self.table.d
        flat = (st.rows[:, None] * d + np.arange(d)).ravel()
        return np.bincount(flat, weights=d_z.ravel(), minlength=len(self.table.vecs) * d).reshape(-1, d)

    def joint_all(self) -> np.ndarray:
        """Joint embeddings of every table row.

        After local updates only the stars holding a stale key are
        re-encoded, into the memo itself (into a copy when the table has
        grown), so an earlier result may change; a move the memo does not
        account for (the encoder, or a graph or table write outside
        ``incremental_update``) re-encodes every row into a new array.
        """
        sig = (self.kg.version, self.enc.store.step_count, self.table.version)
        memo = self._joint_memo
        if memo is None or memo[0] != sig:
            joint = self._forward(self.kg.keys)[0]
        elif self._stale:
            # stars are symmetric: the rows whose star holds k are k's star
            rows = np.unique(np.concatenate([self.kg.context_of(k) for k in self._stale])).tolist()
            joint = memo[1]
            if len(joint) < len(self.table.vecs):
                joint = np.empty_like(self.table.vecs)
                joint[: len(memo[1])] = memo[1]
            joint[rows] = self._forward([self.kg.keys[r] for r in rows])[0]
        else:
            return memo[1]
        self._joint_memo, self._stale = (sig, joint), set()
        return joint

    def joint_cached(self, key: ObjKey) -> np.ndarray:
        """One object's joint embedding: a view of its ``joint_all`` row, which
        the next partial re-encode may overwrite."""
        return self.joint_all()[self.kg.rows[key]]

    # -- losses --------------------------------------------------------------

    def _hinge(self, batch: TrainBatch):
        """Per-pair hinge values, the triples' residual vectors (positives,
        then negatives), their head/relation/tail indices into the forward
        and its tape; every distinct object is forwarded once."""
        index: dict[ObjKey, int] = {}
        triples = [pos for pos, _ in batch.pairs] + [neg for _, neg in batch.pairs]
        hrt = np.array([
            [index.setdefault(k, len(index)) for k in (ent_key(t.head), rel_key(t.rel), ent_key(t.tail))]
            for t in triples
        ])
        ostar, cache = self._forward(list(index))
        e = ostar[hrt[:, 0]] + ostar[hrt[:, 1]] - ostar[hrt[:, 2]]
        f = np.abs(e).sum(axis=1)
        n = len(batch.pairs)
        return f[:n] + batch.margin - f[n:], e, hrt, cache

    def margin_loss_and_grads(self, batch: TrainBatch, *,
                              encoder: bool = True) -> tuple[float, np.ndarray]:
        """Hinge loss plus raw-vector gradients, one row per table row;
        encoder grads accumulate in its store unless ``encoder`` is off."""
        if not batch.pairs:
            return 0.0, np.zeros_like(self.table.vecs)
        hinge, e, hrt, cache = self._hinge(batch)
        active = (hinge > 0.0).astype(np.float64)
        if not active.any():
            return 0.0, np.zeros_like(self.table.vecs)
        # the backward is linear in d_ostar, so sum it per object first:
        # every head, then every relation, then every tail
        de = np.concatenate([active, -active])[:, None] * np.sign(e)
        d_ostar = np.zeros_like(cache["o"])
        np.add.at(d_ostar, hrt.T.ravel(), np.concatenate([de, de, -de]))
        return float(hinge[hinge > 0.0].sum()), self._backward(cache, d_ostar, encoder=encoder)

    # -- training ----------------------------------------------------------

    def _corrupt(self, triple: Triple) -> Triple | None:
        sides = [0, 1] if self.rng.random() < 0.5 else [1, 0]
        for side in sides:
            original = triple.head if side == 0 else triple.tail
            pool = self.kg.entities(original.kind)
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
                self.table.step(grads, slice(None), lr)  # every row
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
        # the memo follows only a delta that starts where it stands; the
        # delta covers every object whose star or raw vector moves here
        memo = self._joint_memo
        start = (delta.version - 1, self.enc.store.step_count, self.table.version)
        follows = memo is not None and memo[0] == start
        affected = sorted(delta.affected)
        rows = self.kg.index(affected)
        self.table.draw(len(self.kg.keys), self.rng)  # the new objects' vectors
        # every added triple is live with both endpoints affected, so the
        # incident triples already include it
        pool = self.kg.triples_incident_to(affected)
        for _ in range(steps):
            if max_triples is not None and len(pool) > max_triples:
                picks = self.rng.choice(len(pool), size=max_triples, replace=False)
                sample = [pool[int(i)] for i in sorted(picks)]
            else:
                sample = pool
            batch = self.make_batch(sample)
            if not batch.pairs:
                continue
            # the encoder is frozen during local updates
            _, grads = self.margin_loss_and_grads(batch, encoder=False)
            self.table.step(grads, rows, lr)
        if follows:
            self._stale |= delta.affected
            self._joint_memo = ((self.kg.version, self.enc.store.step_count, self.table.version), memo[1])

    # -- state ---------------------------------------------------------------

    def _relation_rows(self) -> np.ndarray:
        rel = np.zeros(len(self.kg.keys), dtype=bool)
        rel[[self.kg.rows[k] for k in map(rel_key, RelType) if k in self.kg.rows]] = True
        return rel

    def pool_state(self) -> np.ndarray:
        """Mean entity joint embedding concatenated with mean relation joint."""
        if not len(self.table.vecs):
            raise ConfigError("cannot pool an empty table")
        joint = self.joint_all()
        rel = self._relation_rows()
        means = [joint[m].mean(axis=0) if m.any() else np.zeros(self.table.d) for m in (~rel, rel)]
        return np.concatenate(means)

    def state_feedback(self, d_state: np.ndarray, affected, lr: float) -> None:
        """Push a state-gradient into the encoder and affected embeddings.

        The pooled state averages joint embeddings, so each affected object
        receives its pooled share of the gradient; the backward pass then
        updates encoder parameters and the affected objects' raw vectors.
        """
        keys = [k for k in sorted(set(affected)) if k in self.kg.rows]
        if not keys:
            return
        d = self.table.d
        rows = [self.kg.rows[k] for k in keys]
        rel = self._relation_rows()
        n_rel = int(rel.sum())
        n_ent = len(rel) - n_rel
        seed = np.where(rel[rows, None], d_state[d:] / max(n_rel, 1), d_state[:d] / max(n_ent, 1))
        _, cache = self._forward(keys)
        grads = self._backward(cache, seed)
        sgd_step(self.enc.store, lr)
        self.table.step(grads, rows, lr)
