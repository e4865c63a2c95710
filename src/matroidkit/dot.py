"""DOT exports: path/separator drawings and the colored exchange digraph."""

from __future__ import annotations

from .core import GroundSet
from .intersection import DivisiveColoring, ExchangeDigraph, IntersectionState
from .menger import MengerCertificate, MengerInstance

_PATH_COLORS = (
    "red",
    "blue",
    "forestgreen",
    "darkorange",
    "purple",
    "deeppink",
    "teal",
    "saddlebrown",
    "gold3",
    "navy",
)


def menger_dot(inst: MengerInstance, cert: MengerCertificate) -> str:
    """Undirected drawing with one color class per path and doubled borders
    on separator vertices."""
    g = inst.graph
    lines = ["graph menger {"]
    for v in g.vertices():
        attrs = [f'label="{g.vertex_labels[v]}"']
        if v in inst.s:
            attrs.append("shape=box")
        if v in inst.t:
            attrs.append("style=filled")
            attrs.append("fillcolor=gray90")
        if v in cert.separator:
            attrs.append("peripheries=2")
        lines.append(f"  v{v} [{' '.join(attrs)}];")
    # Each path step is drawn on the least-id edge between its two ends; the
    # paths are vertex-disjoint, so no two steps share a pair of ends.
    least: dict[tuple[int, int], int] = {}
    for e in g.edges():
        u, v = g.endpoints[e]
        least.setdefault((min(u, v), max(u, v)), e)
    colored: dict[int, str] = {}
    for idx, path in enumerate(cert.paths):
        color = _PATH_COLORS[idx % len(_PATH_COLORS)]
        for u, v in zip(path, path[1:]):
            colored[least[min(u, v), max(u, v)]] = color
    for e in g.edges():
        u, v = g.endpoints[e]
        attrs = [f'label="{g.edge_labels[e]}"']
        if e in colored:
            attrs.append(f"color={colored[e]}")
            attrs.append("penwidth=2")
        lines.append(f"  v{u} -- v{v} [{' '.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def digraph_dot(
    ground: GroundSet,
    st: IntersectionState,
    dg: ExchangeDigraph,
    coloring: DivisiveColoring,
) -> str:
    """Exchange digraph: node shape encodes the X/Y/Z class, fill the
    divisive coloring (light blue for blue nodes, light coral for red)."""
    lines = ["digraph exchange {"]
    for v in sorted(dg.nodes):
        if v in st.x:
            shape = "box"
        elif v in st.y:
            shape = "diamond"
        else:
            shape = "ellipse"
        fill = "lightblue" if v in coloring.blue else "lightcoral"
        lines.append(
            f'  n{v} [label="{ground.label(v)}" shape={shape} style=filled fillcolor={fill}];'
        )
    for tail, head, witness in dg.arcs:
        lines.append(f'  n{tail} -> n{head} [label="{ground.label(witness)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
