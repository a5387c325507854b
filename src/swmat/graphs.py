"""Call graphs and global-variable communication graphs, with DOT export."""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

from .model import CallResolution, Pou, PouKind, Project, body_facts


def complexity(pou: Pou) -> int:
    """Statements + decision points (``model.body_facts``) over the body and all actions."""
    return body_facts(pou.all_statements()).complexity


@dataclass(frozen=True)
class CallGraphNode:
    name: str
    kind: PouKind | None
    complexity: int
    external: bool = False
    stub: bool = False
    group: str | None = None


@dataclass(frozen=True)
class CallEdge:
    caller: str
    callee: str
    multiplicity: int


@dataclass(frozen=True)
class CallGraph:
    nodes: tuple[CallGraphNode, ...]
    edges: tuple[CallEdge, ...]
    entries: tuple[str, ...]

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


@dataclass(frozen=True)
class GlobalEdge:
    writer: str
    reader: str
    via: str


@dataclass(frozen=True)
class GlobalUsers:
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


@dataclass(frozen=True)
class GlobalCommGraph:
    """Writer-to-reader edges through globals, kept as a POU–global incidence.

    Every writer of a global has an edge to every other reader of it, so the
    graph stores only who writes and reads each global (``globals``, in
    ``str.lower`` order) and counts its edges from that.
    """

    nodes: tuple[str, ...]
    globals: tuple[GlobalUsers, ...]

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
    ``per_instance`` every declared instance becomes its own node that
    inherits the type's complexity and outgoing calls.  Node complexity is
    the ``Pou.complexity`` that ``parse_project`` stored.
    """
    nodes: dict[str, CallGraphNode] = {}
    order: list[str] = []
    for pou in project.pous:
        nodes[pou.name] = CallGraphNode(
            pou.name, pou.kind, pou.complexity, stub=pou.stub, group=pou.group
        )
        order.append(pou.name)
    canonical = {name.lower(): name for name in nodes}

    edge_count: dict[tuple[str, str], int] = {}
    externals: dict[str, str] = {}

    def external_name(text: str) -> str:
        key = text.lower()
        if key not in externals:
            externals[key] = text
        return externals[key]

    def add_edge(caller: str, callee: str) -> None:
        edge_count[(caller, callee)] = edge_count.get((caller, callee), 0) + 1

    type_targets: dict[str, list[str]] = {}

    for pou in project.pous:
        for site in pou.call_sites:
            if site.resolution is CallResolution.LOCAL_ACTION:
                continue  # intra-POU structure, not an inter-POU call
            if site.resolution is CallResolution.EXTERNAL:
                ext = external_name(site.callee_text)
                if ext.lower() not in canonical:
                    nodes.setdefault(
                        ext, CallGraphNode(ext, None, 0, external=True)
                    )
                    if ext not in order:
                        order.append(ext)
                add_edge(pou.name, ext)
                continue
            target = site.target or site.callee_text
            target = canonical.get(target.lower(), target)
            if per_instance and site.resolution is CallResolution.INSTANCE_OF_FB:
                instance = site.callee_text.split(".")[0]
                inst_node = f"{pou.name}.{instance}"
                if inst_node not in nodes:
                    base = nodes[target]
                    nodes[inst_node] = CallGraphNode(
                        inst_node, base.kind, base.complexity, stub=base.stub
                    )
                    order.append(inst_node)
                    type_targets.setdefault(inst_node, []).append(target)
                add_edge(pou.name, inst_node)
            else:
                add_edge(pou.name, target)

    if per_instance:
        # instance nodes continue into the type-level subgraph
        pous_by_name: dict[str, Pou] = {}
        for pou in project.pous:
            pous_by_name.setdefault(pou.name.lower(), pou)
        for inst_node, targets in type_targets.items():
            for target in targets:
                target_pou = pous_by_name.get(target.lower())
                if target_pou is None:
                    continue
                for site in target_pou.call_sites:
                    if site.resolution is CallResolution.LOCAL_ACTION:
                        continue
                    if site.resolution is CallResolution.EXTERNAL:
                        add_edge(inst_node, external_name(site.callee_text))
                    else:
                        callee = canonical.get((site.target or "").lower())
                        if callee:
                            add_edge(inst_node, callee)

    edges = tuple(
        CallEdge(caller, callee, count)
        for (caller, callee), count in sorted(edge_count.items())
    )

    entries: list[str] = []
    for task in project.tasks:
        target = canonical.get(task.entry.lower())
        if target and target not in entries:
            entries.append(target)
    if not entries:
        called = {e.callee for e in edges}
        entries = [
            n for n in order if n not in called and not nodes[n].external
        ]

    node_tuple = tuple(nodes[name] for name in order)
    return CallGraph(node_tuple, edges, tuple(entries))


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


@dataclass(frozen=True)
class DotOptions:
    size_by_complexity: bool = False
    color_by_kind: bool = False
    min_width: float = 0.3
    graph_name: str = "pous"


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


def _node_line(node: CallGraphNode, options: DotOptions, indent: str) -> str:
    attrs: list[str] = [f"label={_quote(f'{node.name} ({node.complexity})')}"]
    if options.size_by_complexity:
        width = node_width(node.complexity, options.min_width)
        attrs.append(f"width={width:.2f}")
        attrs.append("fixedsize=true")
    if options.color_by_kind:
        attrs.append("style=filled")
        attrs.append(f"fillcolor={_quote(_KIND_COLORS[node.kind])}")
    if node.external:
        attrs.append("shape=box")
    return f"{indent}{_quote(node.name)} [{', '.join(attrs)}];"


def emit_dot(graph: CallGraph | GlobalCommGraph, options: DotOptions | None = None) -> str:
    """Render either graph type as deterministic Graphviz DOT text."""
    options = options or DotOptions()
    lines = [f"digraph {_quote(options.graph_name)} {{"]
    lines.append("  node [shape=circle];")

    if isinstance(graph, CallGraph):
        ordered = sorted(graph.nodes, key=lambda n: (n.name.lower(), n.name))
        grouped: dict[str, list[CallGraphNode]] = {}
        for node in ordered:
            if node.group:
                grouped.setdefault(node.group, []).append(node)
        for node in ordered:
            if not node.group:
                lines.append(_node_line(node, options, "  "))
        for group in sorted(grouped):
            lines.append(f"  subgraph {_quote('cluster_' + group)} {{")
            lines.append(f"    label={_quote(group)};")
            for node in grouped[group]:
                lines.append(_node_line(node, options, "    "))
            lines.append("  }")
        for entry in sorted(graph.entries, key=str.lower):
            lines.append(f"  {_quote(entry)} [penwidth=2];")
        for edge in sorted(graph.edges, key=lambda e: (e.caller.lower(), e.callee.lower())):
            lines.append(
                f"  {_quote(edge.caller)} -> {_quote(edge.callee)} "
                f"[label={_quote(str(edge.multiplicity))}];"
            )
    else:
        for name in sorted(graph.nodes, key=str.lower):
            lines.append(f"  {_quote(name)};")
        lines.extend(_global_edge_blocks(graph))
    lines.append("}\n")
    return "\n".join(lines)


def _global_edge_blocks(graph: GlobalCommGraph) -> Iterator[str]:
    """Edge lines in (writer, reader, global) ``str.lower`` order, one block
    of lines per writer.

    Each global's reader ends (`` -> "R" [label="g"];``) are rendered once
    and shared by its writers; each writer then sorts only its own ends.
    """
    ends: dict[str, list[tuple[str, str, str]]] = {}
    for users in graph.globals:
        key = users.name.lower()
        label = f" [label={_quote(users.name)}];"
        shared = [(r.lower(), key, f" -> {_quote(r)}{label}") for r in users.readers]
        for writer in users.writers:
            ends.setdefault(writer, []).extend(shared)
    for writer in sorted(ends, key=str.lower):
        own = writer.lower()
        mine = [end for reader, _, end in sorted(ends[writer]) if reader != own]
        if mine:
            head = "  " + _quote(writer)
            yield head + ("\n" + head).join(mine)
