"""Connected components (stages/components.py): label propagation vs
a union-find reference; rare-shingle edge generation semantics."""

import numpy as np
import pandas as pd
import ray.data


def _union_find_labels(edges: pd.DataFrame) -> dict:
    par = {}

    def find(x):
        while par.get(x, x) != x:
            par[x] = par.get(par[x], par[x])
            x = par[x]
        return x

    for a, b in edges.itertuples(index=False):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            par[max(ra, rb)] = min(ra, rb)
    nodes = sorted(set(edges.a) | set(edges.b))
    roots = {}
    for n in nodes:
        roots.setdefault(find(n), []).append(n)
    return {n: min(roots[find(n)]) for n in nodes}


def test_cc_matches_union_find(ray_session):
    from cesium_ray.stages.components import connected_components

    rng = np.random.default_rng(1)
    edges = pd.DataFrame({"a": rng.integers(0, 300, 500),
                          "b": rng.integers(0, 300, 500)})
    edges = edges[edges.a != edges.b].drop_duplicates().reset_index(drop=True)
    want = _union_find_labels(edges)
    # both paths: driver-side numpy collapse and distributed rounds
    for thresh in (2_000_000, 0):
        got = connected_components(ray.data.from_pandas(edges),
                                   driver_threshold=thresh)
        assert len(got) == len(want)
        gm = dict(zip(got.node, got.cluster))
        assert all(gm[n] == want[n] for n in want)


def test_cc_chain_diameter(ray_session):
    """A 25-hop chain converges to one component (iteration count
    tracks diameter, not a fixed round budget)."""
    from cesium_ray.stages.components import connected_components

    ch = pd.DataFrame({"a": np.arange(25), "b": np.arange(1, 26)})
    got = connected_components(ray.data.from_pandas(ch))
    assert len(got) == 26 and (got.cluster == 0).all()


def test_rare_shingle_edges_semantics(ray_session):
    """Docs sharing a rare k-gram link; grams in more than max_docs
    docs are ignored (stop-phrase cap); short docs gram as themselves."""
    from cesium_ray.stages.components import rare_shingle_edges

    common = "z" * 20  # shared by 4 docs -> over the max_docs=3 cap
    docs = pd.DataFrame({
        "doc_id": np.arange(6, dtype=np.int64),
        "text": [
            "the quick brown fox jumps" + common,
            "the quick brown fox sleeps" + common,
            "entirely different text here" + common,
            "another unrelated document x" + common,
            "tiny",   # < k: grams as itself
            "tiny",   # exact short dup -> shared gram "tiny"
        ],
    })
    edges = rare_shingle_edges(
        ray.data.from_pandas(docs), k=16, max_docs=3
    ).to_pandas().sort_values(["a", "b"]).reset_index(drop=True)
    pairs = set(map(tuple, edges[["a", "b"]].to_numpy()))
    assert (0, 1) in pairs          # share "the quick brown fox ..."
    assert (4, 5) in pairs          # short-doc self-gram match
    # the z-run gram is in 6 > max_docs docs: must NOT link 2 and 3
    assert (2, 3) not in pairs
