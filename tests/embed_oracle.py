"""The embedder as it stood before the batched star encoder.

Kept verbatim as the oracle that ``test_embed.py`` compares the production
``Embedder`` with: raw vectors in a dict with a version counter per
object, one dense renormalized-adjacency GCN forward and backward per
object, a joint cache keyed on those versions, the hinge loss summed pair
by pair, and pooling and feedback key by key.

``StackedOracle`` is the batched star encoder with a weight per stacked
node, a backward that always takes the encoder's gradients and an
``np.add.at`` scatter; ``test_embed.py`` compares the local update with it
bit for bit.
"""

from __future__ import annotations

import numpy as np

from geostream import kgstore
from geostream.embed import ContextEncoder, TrainBatch
from geostream.errors import ConfigError, TrainingError, UnknownObjectError
from geostream.kgstore import DynamicKg, Triple, ent_key, rel_key
from geostream.numkit import relu, row_softmax, sgd_step, sigmoid

import probes

ObjKey = tuple[int, int]


class OracleTable:
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


def _norm_adjacency(n: int) -> np.ndarray:
    """Renormalized adjacency of the n-node star centred on node 0."""
    a_hat = np.eye(n)
    a_hat[0, 1:] = a_hat[1:, 0] = 1.0
    d_hat = a_hat.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(d_hat)
    return a_hat * inv_sqrt[:, None] * inv_sqrt[None, :]


class OracleEmbedder:
    """A graph, an ``OracleTable`` and a ``ContextEncoder``, adopted as given."""

    def __init__(self, kg: DynamicKg, table: OracleTable, enc: ContextEncoder):
        self.kg = kg
        self.table = table
        self.enc = enc
        self._joint_cache: dict[ObjKey, tuple[tuple, np.ndarray]] = {}

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

    def _signature(self, nodes) -> tuple:
        # a context is the star over its nodes, so they determine it exactly
        return (
            self.enc.store.step_count,
            nodes,
            tuple(self.table.version(k) for k in nodes),
        )

    def joint_cached(self, key: ObjKey) -> np.ndarray:
        nodes = probes.context(self.kg, key)
        sig = self._signature(nodes)
        hit = self._joint_cache.get(key)
        if hit is not None and hit[0] == sig:
            return hit[1]
        vec = self._joint_forward(nodes)[0]
        self._joint_cache[key] = (sig, vec)
        return vec

    def _triple_forward(self, triple: Triple) -> list[tuple[np.ndarray, dict]]:
        """Joint forwards of a triple's head, relation kind and tail."""
        keys = (ent_key(triple.head), rel_key(triple.rel), ent_key(triple.tail))
        return [self._joint_forward(probes.context(self.kg, k)) for k in keys]

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

    def _apply_grads(self, grads: dict[ObjKey, np.ndarray], lr: float, allowed=None) -> None:
        for key in sorted(grads):
            if allowed is not None and key not in allowed:
                continue
            self.table.apply_grad(key, grads[key], lr)

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
            _, cache = self._joint_forward(probes.context(self.kg, key))
            self._joint_backward(cache, seed, grads)
        sgd_step(self.enc.store, lr)
        self._apply_grads(grads, lr, allowed=set(keys))



class _WeightedStars:
    """Stacked stars with a mixing weight per node: 1/n on a centre and
    1/2 on a leaf, and the cross weight 1/sqrt(2n) on a leaf, 0 on a
    centre."""

    def __init__(self, kg: DynamicKg, keys):
        stars = [kg.context_of(key) for key in keys]
        self.rows = np.concatenate(stars)
        sizes = np.array([len(star) for star in stars])
        self.starts = np.concatenate([[0], np.cumsum(sizes[:-1])]).astype(np.intp)
        self.seg = np.repeat(np.arange(len(stars)), sizes)
        self.centre = self.starts[self.seg]
        is_centre = self.centre == np.arange(len(self.seg))
        n = sizes[self.seg].astype(np.float64)
        self.self_w = np.where(is_centre, 1.0 / n, 0.5)[:, None]
        self.cross_w = np.where(is_centre, 0.0, 1.0 / np.sqrt(2.0 * n))[:, None]

    def mix(self, x: np.ndarray) -> np.ndarray:
        out = self.self_w * x + self.cross_w * x[self.centre]
        out[self.starts] += np.add.reduceat(self.cross_w * x, self.starts)
        return out

    def sum(self, x: np.ndarray) -> np.ndarray:
        return np.add.reduceat(x, self.starts)


class StackedOracle:
    """The batched star encoder of an ``Embedder`` (its graph, table,
    encoder and generator) with node weights gathered per node, a backward
    that always takes the encoder's gradients and scatters the raw ones by
    ``np.add.at``, and a local update that zeroes the encoder's gradients
    after each step. Every float operation is ``Embedder``'s, in its order."""

    def __init__(self, emb):
        self.emb = emb

    def forward(self, keys) -> tuple[np.ndarray, dict]:
        enc, st = self.emb.enc, _WeightedStars(self.emb.kg, keys)
        zs = [self.emb.table.vecs[st.rows]]
        for i in range(enc.layers):
            zs.append(relu(st.mix(zs[-1]) @ enc.gcn_weight(i)))
        zm = zs[-1]
        o = zs[0][st.starts]
        scores = (zm * (enc.att_scale * o)[st.seg]).sum(axis=1)
        e = np.exp(scores - np.maximum.reduceat(scores, st.starts)[st.seg])
        alpha = e / st.sum(e)[st.seg]
        cx = st.sum(alpha[:, None] * zm)
        g = sigmoid(enc.gate)
        return g * o + (1.0 - g) * cx, {"st": st, "zs": zs, "alpha": alpha, "cx": cx, "g": g, "o": o}

    def backward(self, cache: dict, d_ostar: np.ndarray, grads: np.ndarray) -> None:
        enc = self.emb.enc
        st, o, cx, g, alpha = (cache[k] for k in ("st", "o", "cx", "g", "alpha"))
        zm = cache["zs"][-1]
        enc.store.accumulate("gate", (d_ostar * (o - cx) * g * (1.0 - g)).sum(axis=0))
        d_cx = (d_ostar * (1.0 - g))[st.seg]
        d_alpha = (zm * d_cx).sum(axis=1)
        d_scores = alpha * (d_alpha - st.sum(alpha * d_alpha)[st.seg])
        d_z = alpha[:, None] * d_cx + d_scores[:, None] * (enc.att_scale * o)[st.seg]
        d_q = st.sum(d_scores[:, None] * zm)
        enc.store.accumulate("att/scale", (d_q * o).sum(axis=0))
        for i in reversed(range(enc.layers)):
            d_m = d_z * (cache["zs"][i + 1] > 0)
            enc.store.accumulate(f"gcn/w{i}", st.mix(cache["zs"][i]).T @ d_m)
            d_z = st.mix(d_m @ enc.gcn_weight(i).T)
        d_z[st.starts] += d_ostar * g + d_q * enc.att_scale
        np.add.at(grads, st.rows, d_z)

    def margin_loss_and_grads(self, batch: TrainBatch) -> tuple[float, np.ndarray]:
        grads = np.zeros_like(self.emb.table.vecs)
        if not batch.pairs:
            return 0.0, grads
        index: dict[ObjKey, int] = {}
        triples = [pos for pos, _ in batch.pairs] + [neg for _, neg in batch.pairs]
        hrt = np.array([
            [index.setdefault(k, len(index)) for k in (ent_key(t.head), rel_key(t.rel), ent_key(t.tail))]
            for t in triples
        ])
        ostar, cache = self.forward(list(index))
        e = ostar[hrt[:, 0]] + ostar[hrt[:, 1]] - ostar[hrt[:, 2]]
        f = np.abs(e).sum(axis=1)
        n = len(batch.pairs)
        hinge = f[:n] + batch.margin - f[n:]
        active = (hinge > 0.0).astype(np.float64)
        if active.any():
            de = np.concatenate([active, -active])[:, None] * np.sign(e)
            d_ostar = np.zeros_like(cache["o"])
            for col, sign in ((0, 1.0), (1, 1.0), (2, -1.0)):
                np.add.at(d_ostar, hrt[:, col], sign * de)
            self.backward(cache, d_ostar, grads)
        return float(hinge[hinge > 0.0].sum()), grads

    def incremental_update(self, delta, steps: int = 1, lr: float = 0.01,
                           max_triples: int | None = None) -> list[np.ndarray]:
        """The local training of ``Embedder.incremental_update``; returns
        each step's raw-vector gradients. The joint memo is left behind."""
        emb = self.emb
        affected = sorted(delta.affected)
        rows = emb.kg.index(affected)
        emb.table.draw(len(emb.kg.keys), emb.rng)
        pool = emb.kg.triples_incident_to(affected)
        taken = []
        for _ in range(steps):
            if max_triples is not None and len(pool) > max_triples:
                picks = emb.rng.choice(len(pool), size=max_triples, replace=False)
                sample = [pool[int(i)] for i in sorted(picks)]
            else:
                sample = pool
            batch = emb.make_batch(sample)
            if not batch.pairs:
                continue
            _, grads = self.margin_loss_and_grads(batch)
            emb.enc.store.zero_grads()
            emb.table.step(grads, rows, lr)
            taken.append(grads)
        return taken
