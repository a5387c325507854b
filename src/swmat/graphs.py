"""Call graphs and global-variable communication graphs, with DOT export."""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Iterator
from functools import cached_property
from itertools import chain, groupby
from typing import NamedTuple

from .model import CallResolution, CallSite, Memos, Pou, PouKind, Project


def complexity(pou: Pou) -> int:
    """Statements + decision points over the body and all actions, as the
    parser recorded them (``stparse.Parser``)."""
    return pou.complexity


class CallGraphNode(NamedTuple):
    name: str
    kind: PouKind | None
    complexity: int
    external: bool = False
    stub: bool = False
    group: str | None = None


class CallEdge(NamedTuple):
    caller: str
    callee: str
    multiplicity: int


class _CallGraphFields(NamedTuple):
    nodes: tuple[CallGraphNode, ...]
    edges: tuple[CallEdge, ...]
    entries: tuple[str, ...]


class CallGraph(_CallGraphFields, Memos):
    def node_map(self) -> dict[str, CallGraphNode]:
        return {n.name: n for n in self.nodes}

    def callers(self, name: str) -> list[str]:
        """Callers of a node, one per edge, in edge order."""
        return self._index[0].get(name, [])

    def callees(self, name: str) -> list[str]:
        """Callees of a node, one per edge, in edge order."""
        return self._index[1].get(name, [])

    @cached_property
    def _index(self) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
        callers: dict[str, list[str]] = {}
        callees: dict[str, list[str]] = {}
        for edge in self.edges:
            callers.setdefault(edge.callee, []).append(edge.caller)
            callees.setdefault(edge.caller, []).append(edge.callee)
        return callers, callees


class GlobalEdge(NamedTuple):
    writer: str
    reader: str
    via: str


class GlobalUsers(NamedTuple):
    """The POUs that write and read one global, each in ``str.lower`` order."""

    name: str
    writers: tuple[str, ...]
    readers: tuple[str, ...]

    @property
    def edge_count(self) -> int:
        """|W|·|R| minus the writer/reader pairs that are one POU (no self edges)."""
        readers = Counter(r.lower() for r in self.readers)
        self_pairs = sum(readers[w.lower()] for w in self.writers)
        return len(self.writers) * len(self.readers) - self_pairs


class _GlobalCommGraphFields(NamedTuple):
    nodes: tuple[str, ...]
    globals: tuple[GlobalUsers, ...]


class GlobalCommGraph(_GlobalCommGraphFields, Memos):
    """Writer-to-reader edges through globals, kept as a POU–global incidence.

    Every writer of a global has an edge to every other reader of it, so the
    graph stores only who writes and reads each global (``globals``, in
    ``str.lower`` order) and counts its edges from that.
    """

    @cached_property
    def edge_count(self) -> int:
        return sum(users.edge_count for users in self.globals)

    @property
    def edges(self) -> GlobalEdges:
        return GlobalEdges(self)


class GlobalEdges:
    """The edges of a GlobalCommGraph as a sized, iterable view.

    ``len`` reads the counted total; iteration builds each GlobalEdge on
    demand, per global, then writer, then reader.
    """

    def __init__(self, graph: GlobalCommGraph):
        self._graph = graph

    def __len__(self) -> int:
        return self._graph.edge_count

    def __iter__(self) -> Iterator[GlobalEdge]:
        for users in self._graph.globals:
            for writer in users.writers:
                own = writer.lower()
                for reader in users.readers:
                    if reader.lower() != own:
                        yield GlobalEdge(writer, reader, users.name)


def build_call_graph(project: Project, per_instance: bool = False) -> CallGraph:
    """Directed call graph over POUs; unresolved callees become stub nodes.

    By default instance calls collapse onto the FB type, so two instances of
    one block yield a single edge with multiplicity two.  With
    ``per_instance`` every declared instance becomes its own node, named
    ``<caller>.<instance>`` as the instance is declared, that inherits the
    type's complexity and outgoing calls.  Node complexity is the
    ``Pou.complexity`` that the parser recorded (``stparse``).
    """
    nodes = {
        pou.name: CallGraphNode(pou.name, pou.kind, pou.complexity, stub=pou.stub, group=pou.group)
        for pou in project.pous
    }
    canonical = {name.lower(): name for name in nodes}
    entries: list[str] = []
    for task in project.tasks:
        target = canonical.get(task.entry.lower())
        if target and target not in entries:
            entries.append(target)

    def callee_of(site: CallSite) -> str | None:
        """The node a call site reaches: the POU its target or text names, in
        any case, else an external node spelled as that text first appeared."""
        if site.resolution is CallResolution.LOCAL_ACTION:
            return None  # intra-POU structure, not an inter-POU call
        text = site.callee_text if site.resolution is CallResolution.EXTERNAL else site.target
        key = text.lower()
        if key not in canonical:
            canonical[key] = text
            nodes.setdefault(text, CallGraphNode(text, None, 0, external=True))
        return canonical[key]

    edge_count: Counter[tuple[str, str]] = Counter()
    instance_types: dict[str, Pou] = {}
    pous = {pou.name: pou for pou in project.pous}
    global_names = project.global_names()
    for pou in project.pous:
        decls = pou.declared_names() if per_instance else {}
        for site in pou.call_sites:
            callee = callee_of(site)
            if callee is None:
                continue
            if per_instance and site.resolution is CallResolution.INSTANCE_OF_FB:
                # spelled as declared: the local, else the global, called through
                var = site.callee_text.split(".")[0]
                declared = decls.get(var.lower()) or global_names.get(var.lower())
                instance = f"{pou.name}.{declared.name if declared else var}"
                if instance not in nodes:
                    base = nodes[callee]
                    nodes[instance] = CallGraphNode(
                        instance, base.kind, base.complexity, stub=base.stub
                    )
                    instance_types[instance] = pous[callee]
                callee = instance
            edge_count[pou.name, callee] += 1
    # instance nodes continue into the type-level subgraph
    for instance, fb_type in instance_types.items():
        for site in fb_type.call_sites:
            callee = callee_of(site)
            if callee is not None:
                edge_count[instance, callee] += 1

    edges = tuple(
        CallEdge(caller, callee, count)
        for (caller, callee), count in sorted(edge_count.items())
    )
    if not entries:
        called = {e.callee for e in edges}
        entries = [n for n, node in nodes.items() if n not in called and not node.external]
    return CallGraph(tuple(nodes.values()), edges, tuple(entries))


def build_global_comm_graph(project: Project) -> GlobalCommGraph:
    """Who writes and who reads each global; edges are implied, not built."""
    writers: dict[str, list[str]] = {}
    readers: dict[str, list[str]] = {}
    for pou in project.pous:
        for g in pou.global_writes:
            writers.setdefault(g, []).append(pou.name)
        for g in pou.global_reads:
            readers.setdefault(g, []).append(pou.name)
    users = tuple(
        GlobalUsers(
            g,
            tuple(sorted(writers.get(g, ()), key=str.lower)),
            tuple(sorted(readers.get(g, ()), key=str.lower)),
        )
        for g in sorted(set(writers) | set(readers), key=str.lower)
    )
    return GlobalCommGraph(tuple(p.name for p in project.pous), users)


# --- DOT export ----------------------------------------------------------------


_KIND_COLORS = {
    PouKind.PROGRAM: "lightblue",
    PouKind.FUNCTION_BLOCK: "palegoldenrod",
    PouKind.FUNCTION: "palegreen",
    None: "lightgray",
}


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def node_width(complexity_value: int, min_width: float) -> float:
    """Diameter proportional to sqrt(complexity): node area tracks complexity."""
    return max(min_width, min_width * math.sqrt(complexity_value))


def _node_line(node: CallGraphNode, indent: str) -> str:
    attrs = [
        f"label={_quote(f'{node.name} ({node.complexity})')}",
        f"width={node_width(node.complexity, 0.3):.2f}",
        "fixedsize=true",
        "style=filled",
        f"fillcolor={_quote(_KIND_COLORS[node.kind])}",
    ]
    if node.external:
        attrs.append("shape=box")
    return f"{indent}{_quote(node.name)} [{', '.join(attrs)}];"


def emit_dot(graph: CallGraph | GlobalCommGraph) -> str:
    """Render either graph type as deterministic Graphviz DOT text: the
    chunks of ``dot_chunks`` joined."""
    return "".join(dot_chunks(graph))


def dot_chunks(graph: CallGraph | GlobalCommGraph) -> Iterator[str]:
    """Graphviz DOT text for either graph type, in chunks that each end in a
    newline: the header with the node lines, then one block of edges per
    caller or per writer of a global, then the closing brace.  Code that
    writes each chunk as it comes holds one block's edges at a time, not the
    whole text.
    """
    yield _dot_head(graph)
    if isinstance(graph, CallGraph):
        yield from _call_edge_blocks(graph)
    else:
        yield from _global_edge_blocks(graph)
    yield "}\n"


def _dot_head(graph: CallGraph | GlobalCommGraph) -> str:
    """The header and node lines, newline-ended.

    Call-graph nodes are filled by POU kind and sized by sqrt(complexity).
    """
    call_graph = isinstance(graph, CallGraph)
    graph_name = "calls" if call_graph else "global_communication"
    lines = [f"digraph {_quote(graph_name)} {{", "  node [shape=circle];"]
    if call_graph:
        ordered = sorted(graph.nodes, key=lambda n: (n.name.lower(), n.name))
        grouped: dict[str, list[CallGraphNode]] = {}
        for node in ordered:
            if node.group:
                grouped.setdefault(node.group, []).append(node)
        for node in ordered:
            if not node.group:
                lines.append(_node_line(node, "  "))
        for group in sorted(grouped):
            lines.append(f"  subgraph {_quote('cluster_' + group)} {{")
            lines.append(f"    label={_quote(group)};")
            for node in grouped[group]:
                lines.append(_node_line(node, "    "))
            lines.append("  }")
        for entry in sorted(graph.entries, key=str.lower):
            lines.append(f"  {_quote(entry)} [penwidth=2];")
    else:
        for name in sorted(graph.nodes, key=str.lower):
            lines.append(f"  {_quote(name)};")
    lines.append("")  # ends the text in a newline without copying it
    return "\n".join(lines)


def _call_edge_blocks(graph: CallGraph) -> Iterator[str]:
    """Edge lines in (caller, callee) ``str.lower`` order, one block of
    newline-ended lines per caller."""
    edges = sorted(graph.edges, key=lambda e: (e.caller.lower(), e.callee.lower()))
    for _, block in groupby(edges, key=lambda e: e.caller.lower()):
        yield "".join(
            f"  {_quote(e.caller)} -> {_quote(e.callee)} "
            f"[label={_quote(str(e.multiplicity))}];\n"
            for e in block
        )


def _global_edge_blocks(graph: GlobalCommGraph) -> Iterator[str]:
    """Edge lines in (writer, reader, global) ``str.lower`` order, one block
    of newline-ended lines per writer that has edges.

    Each (reader, global) end (`` -> "R" [label="g"];``) is rendered once
    and ranked once, by its place in the order of all ends.  A writer's ends
    are then the ranks of the globals it writes, sorted as small ints.  The
    ends whose reader is the writer itself hold one range of ranks, cut out
    of the sorted ranks by bisection.
    """
    ends: list[tuple[str, str, str, int]] = []
    written: dict[str, list[int]] = {}
    for g, users in enumerate(graph.globals):
        key = users.name.lower()
        label = f" [label={_quote(users.name)}];"
        for writer in users.writers:
            written.setdefault(writer, []).append(g)
        ends.extend((r.lower(), key, f" -> {_quote(r)}{label}", g) for r in users.readers)
    ends.sort()
    global_ranks: list[list[int]] = [[] for _ in graph.globals]
    for rank, (_, _, _, g) in enumerate(ends):
        global_ranks[g].append(rank)
    reader_keys = [end[0] for end in ends]
    rendered = [end[2] for end in ends]
    del ends
    for writer in sorted(written, key=str.lower):
        own = writer.lower()
        mine = sorted(chain.from_iterable(map(global_ranks.__getitem__, written[writer])))
        # the ranks of the writer's own reads
        lo = bisect_left(mine, bisect_left(reader_keys, own))
        hi = bisect_left(mine, bisect_right(reader_keys, own))
        del mine[lo:hi]
        if mine:
            head = "  " + _quote(writer)
            yield head + ("\n" + head).join(map(rendered.__getitem__, mine)) + "\n"
