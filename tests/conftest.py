import pytest

from qnetcap.channels import FibreParams, Identity, channel_to_json


def _reference_json(graph):
    """The v1 document built as one dict per node and per edge, each edge with its own source object:
    the reference that ``network_to_json`` must print exactly as ``json.dumps`` does."""
    names = graph.names
    nodes = []
    for node_id, recv, send, role in zip(names, graph.recv, graph.send, graph.role):
        entry = {"id": node_id}
        if not isinstance(recv, Identity):
            entry["recv"] = channel_to_json(recv)
        if not isinstance(send, Identity):
            entry["send"] = channel_to_json(send)
        entry["role"] = role
        nodes.append(entry)
    sources = [("fibre", {"length_km": c.length_km, "gamma": c.gamma, "nbar_B": c.nbar_B})
               if isinstance(c, FibreParams) else ("channel", channel_to_json(c)) for c in graph.classes]
    edges = [{"a": names[u], "b": names[v], sources[c][0]: {**sources[c][1]}}
             for u, v, c in zip(graph.a, graph.b, graph.cls)]
    data = {"nodes": nodes, "edges": edges}
    if graph.users is not None:
        data["users"] = list(graph.users)
    if graph.family is not None:
        data["family"] = graph.family
    return data


@pytest.fixture(scope="session")  # session scope, so hypothesis tests may take it
def reference_json():
    return _reference_json
