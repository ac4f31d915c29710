"""Independent output checks, run outside the timed region.

networkx is the oracle: it never runs inside the library, so a defect
shared by the library's own embedder and its own verifier cannot hide
here.  Each check returns ``None`` when the output is right and a short
reason when it is not; the caller counts every reason as one failed
operation.
"""

from __future__ import annotations

import networkx as nx


def nx_graph(edges) -> nx.Graph:
    graph = nx.Graph()
    graph.add_edges_from((u, v) for u, v in edges)
    return graph


def is_planar(edges) -> bool:
    return nx.check_planarity(nx_graph(edges))[0]


def rotation_problem(edges, rotation: dict) -> str | None:
    """Why ``rotation`` (node -> clockwise neighbour sequence) is not a
    planar embedding of the graph with ``edges``, or ``None``."""
    graph = nx_graph(edges)
    if set(rotation) != set(graph.nodes):
        return "rotation does not cover exactly the graph's nodes"
    for v, order in rotation.items():
        if len(order) != len(set(order)) or set(order) != set(graph.adj[v]):
            return f"rotation at {v!r} is not a permutation of its neighbours"
    embedding = nx.PlanarEmbedding()
    embedding.set_data({v: list(order) for v, order in rotation.items()})
    try:
        embedding.check_structure()
    except nx.NetworkXException as exc:
        return f"not a planar embedding: {exc}"
    return None


def witness_problem(edges, witness_edges) -> str | None:
    """Why ``witness_edges`` is not a sound non-planarity witness for
    the graph with ``edges``, or ``None``."""
    present = {frozenset(e) for e in edges}
    if not all(frozenset(e) in present for e in witness_edges):
        return "witness uses an edge the input does not have"
    if is_planar(witness_edges):
        return "witness is planar"
    return None


def parse_rotation(wire: dict) -> dict:
    """A serve verdict's rotation (repr-keyed) back to integer node IDs."""
    return {int(v): [int(u) for u in order] for v, order in wire.items()}


def embed_problem(edges, planar: bool, status: str, value) -> str | None:
    """Check one ``distributed_planar_embedding`` outcome: ``value`` is
    the rotation when ``status`` is ``"ok"``, else the error."""
    if status != "ok":
        return str(value)
    if not planar:
        return "embedded a graph networkx finds non-planar"
    return rotation_problem(edges, value)


def serve_problem(edges, planar: bool, kind: str, record: dict) -> str | None:
    """Check one serve verdict record for a job of ``kind``."""
    outcome = record.get("outcome")
    if not planar:
        if outcome != "non-planar":
            return f"networkx finds the input non-planar, verdict {outcome}"
        return witness_problem(edges, record["witness"]["edges"])
    if outcome != "ok":
        return f"planar input, verdict {outcome}"
    report = record["report"]
    rotation = parse_rotation(record["rotation"])
    if kind == "certify" and not report["certification"]["accepted"]:
        return "certificate rejected"
    if kind == "churn":
        if not report["churn"]["accepted"]:
            return "churn certificate rejected"
        # The rotation describes the churned edge set, not the submitted one.
        edges = list({frozenset((v, u)) for v, order in rotation.items() for u in order})
    return rotation_problem(edges, rotation)


def check_outputs(items, edges: dict, planar: dict) -> tuple[list[str], dict]:
    """Check a pass's ``(job, kind, status, output)`` items.

    ``kind`` is ``None`` for a plain embed and a serve job kind
    otherwise.  ``planar`` memoizes networkx's verdict per job across
    passes; the updated memo is returned with the failures."""
    failures = []
    for job, kind, status, output in items:
        if job not in planar:
            planar[job] = is_planar(edges[job])
        if kind is None:
            problem = embed_problem(edges[job], planar[job], status, output)
        else:
            problem = serve_problem(edges[job], planar[job], kind, output)
        if problem:
            failures.append(f"{job}: {problem}")
    return failures, planar
