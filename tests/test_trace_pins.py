"""Pinned trace digests: a fixed config and seed must keep producing the
same train and eval ``trace.csv``, byte for byte.

Speed work on the encoder, the graph store or the replay may reorder
bookkeeping but never change what the loop computes, so these digests
hold across such changes. They were recorded with Python 3.11, numpy 2.4
and OpenBLAS 0.3.31 (scipy-openblas, x86-64); another BLAS build or CPU
kernel may round dense products differently and move a digest without
any code change. Each run takes about a second.
"""

import hashlib
from dataclasses import replace

from geostream.harness import RunConfig, run_eval, run_training, split_stream

from conftest import WORDVEC_PATH, make_drifting_stream

N_EVENTS = 240


def _config(**overrides) -> RunConfig:
    cfg = RunConfig(
        stream_length=N_EVENTS, split_fraction=0.75, d=8, k=2, w=3, b=60,
        gamma=0.1, epsilon_start=0.5, epsilon_end=0.05,
        init_epochs=1, incr_steps=1, max_incr_triples=12,
        lr_embed=0.01, lr_q=0.05, lr_feedback=0.005,
        train_every=2, batch_size=8, buffer_capacity=60,
        qnet_hidden=16, legacy_n=8, seed=3, wordvecs=WORDVEC_PATH,
        priority_mode="td", stochastic_replay=True,
    )
    return replace(cfg, **overrides)


def _digests(**overrides) -> tuple[str, str]:
    records = make_drifting_stream(n_events=N_EVENTS, seed=5)
    cfg = _config(**overrides)
    artifacts, train_log, _ = run_training(cfg, records=list(records))
    _, test_events = split_stream(records, cfg.split_fraction)
    _, eval_log = run_eval(cfg, artifacts, test_events)
    return tuple(
        hashlib.sha256(log.to_trace_csv().encode()).hexdigest()
        for log in (train_log, eval_log)
    )


def test_drpr_trace_digests():
    # w=3 evicts on most visits; train_every=2 runs Bellman steps whose
    # encoder feedback forces full re-encodes between local ones
    assert _digests(agent_mode="drpr") == (
        "5bbe98de9cb1eeda35452e5653a07a9401ae8a6d07fe1267a15a808fc0309ce8",
        "7a0e1f5acfe0d05f43e3c97daf5b0bae56293dee5caad65f051d3a1f93fa7049",
    )


def test_drpr_embeddings_digest(tmp_path):
    # the saved table's keys and vectors, row by row: fixes the order in
    # which objects get their rows and draw their initial vectors
    records = make_drifting_stream(n_events=N_EVENTS, seed=5)
    artifacts, _, _ = run_training(_config(agent_mode="drpr"), records=list(records))
    artifacts.save(tmp_path)
    assert hashlib.sha256((tmp_path / "embeddings.bin").read_bytes()).hexdigest() == (
        "a6d0170bee86ac0006b274074676ebaf721c7505f3168bf687b7baa8a947f40b"
    )


def test_rirl_trace_digests():
    assert _digests(agent_mode="rirl") == (
        "702d44c87866a7d5b3c09c92ddfe884059bc331d64d8b2eeace68c3c24d9dc83",
        "b1f6a09c8f5a790a5d350111d4900d0b63a615fb3cae688f4f19ca55d48a39b9",
    )


def test_drpr_nocand_trace_digests():
    # pairwise scoring over every POI of the catalog, in index order
    assert _digests(agent_mode="drpr-nocand") == (
        "26eb0128024b0068dcb3665f83d7753321cd69a9eb89b1248daf930bda32c1cf",
        "bbdf6ca3898909d02c8f3ea13628f78dc47dc1db74af1626283d9184f1f11d1d",
    )


def test_rirl_top_k_replay_trace_digests():
    # deterministic top-k replay, as the benchmark workloads run it
    assert _digests(agent_mode="rirl", stochastic_replay=False) == (
        "d93b691a1ee6789446eefcd81a43180eafba8a115d3b7279a43c44917b2a4660",
        "aec75fdd3fff809969692eaf817a55b26fab7f81e810b99ddb4277d8ffa9b26d",
    )


def test_drpr_noexit_trace_digests():
    # unbounded windows: candidates walk every visit the user ever made
    assert _digests(agent_mode="drpr-noexit") == (
        "5af7be546834e6a1da0aa6c9d188940a47ece099b85b9f49fe83953bbac25dba",
        "6e11d42b6d35d7ed43229482477a6d58d8bbf1ea69e3dfefff0d1fb67c7cf022",
    )


def test_drpr_static_trace_digests():
    # the graph never takes a visit, so every candidate set is popularity padding
    assert _digests(agent_mode="drpr-static") == (
        "31b4ea2569d2e1d8786261e896e48c989972e14acfab5fc60bb2539e76dfebd0",
        "affde4a0be313e56b6e09d8371fffb5ce4defb40d3b4e6c5f963e8e9ddc24125",
    )


def test_drpr_reward_priority_target_refresh_frozen_eval_trace_digests():
    # reward priorities, a target net refreshed every 3 steps, and an
    # eval replica whose graph and embeddings take no visit
    assert _digests(agent_mode="drpr", priority_mode="reward", target_refresh=3, frozen_eval=True) == (
        "747f9f5152a544d7f624fb622513ebbac2c7fe44bd78e8cec30b0fc369a3baa8",
        "8fd28b007518d5534c4252c84366b365abcc12782c67c3e22876e982d45815de",
    )


def test_rirl_reward_priority_target_refresh_frozen_eval_trace_digests():
    assert _digests(agent_mode="rirl", priority_mode="reward", target_refresh=3, frozen_eval=True) == (
        "887ddc89459811e33d709ad870ecdeb63a6fd265bc5bdd570546377b5e56e5c9",
        "2c97a0ef0823f8922d014e22e71d4e3a1879b054a00c21a2be37491c295c18fa",
    )


def test_drpr_no_feedback_top_k_replay_trace_digests():
    # Bellman steps leave the encoder as it is
    assert _digests(agent_mode="drpr", encoder_feedback=False, stochastic_replay=False) == (
        "972d32a51a363b07e20766c25c4d4049e18e741d3e238f6b1d22ac19628d4779",
        "317ec60432d0ee3e2cc505f38de6a4861ddbf81ea9e6cf825dfcc68e3e02f6d1",
    )
