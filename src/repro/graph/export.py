"""Export compiled programs as graphs (networkx / Graphviz DOT).

Vertices are instructions (one graph node per (block, statement)); edges
are data arcs, including cross-block linkage: loop entry (L to the loop's
param targets), loop exit (L⁻¹ to the parent's consumers), procedure
argument and return arcs for statically-bound CALLs.  Useful for eyeball
comparison with the paper's figures and for structural analysis
(fan-out distributions, depth, connectivity) with networkx, which is
imported on first use so that nothing else in the package pays for it.
"""

from .codeblock import CodeBlock
from .opcodes import OPCODE_CLASS, Opcode

__all__ = ["to_networkx", "to_dot", "graph_statistics"]

_EDGE_LOCAL = "data"
_EDGE_SWITCH_FALSE = "switch-false"
_EDGE_LOOP_ENTRY = "loop-entry"
_EDGE_LOOP_EXIT = "loop-exit"
_EDGE_CALL = "call"
_EDGE_RETURN = "return"


def _node(block_name, statement):
    return (block_name, statement)


def to_networkx(program):
    """Build a :class:`networkx.MultiDiGraph` of the whole program."""
    import networkx as nx

    graph = nx.MultiDiGraph()
    for block in program.blocks.values():
        for instruction in block:
            graph.add_node(
                _node(block.name, instruction.statement),
                opcode=instruction.opcode.value,
                opclass=OPCODE_CLASS[instruction.opcode].value,
                label=instruction.name or instruction.opcode.value,
                block=block.name,
            )
    for block in program.blocks.values():
        for instruction in block:
            src = _node(block.name, instruction.statement)
            opcode = instruction.opcode
            if opcode is Opcode.L:
                loop = program.block(instruction.target_block)
                for dest in loop.param_targets[instruction.param_index]:
                    graph.add_edge(src, _node(loop.name, dest.statement),
                                   kind=_EDGE_LOOP_ENTRY, port=dest.port)
                continue
            if opcode is Opcode.L_INV:
                for dest in block.exit_dests[instruction.param_index]:
                    graph.add_edge(src, _node(block.parent_block,
                                              dest.statement),
                                   kind=_EDGE_LOOP_EXIT, port=dest.port)
                continue
            if opcode is Opcode.CALL and instruction.target_block is not None:
                callee = program.block(instruction.target_block)
                for index in range(instruction.arg_count):
                    for dest in callee.param_targets[index]:
                        graph.add_edge(src, _node(callee.name, dest.statement),
                                       kind=_EDGE_CALL, port=dest.port)
                graph.add_edge(
                    _node(callee.name, callee.return_statement), src,
                    kind=_EDGE_RETURN, port=0,
                )
            for dest in instruction.dests:
                graph.add_edge(src, _node(block.name, dest.statement),
                               kind=_EDGE_LOCAL, port=dest.port)
            for dest in instruction.dests_false:
                graph.add_edge(src, _node(block.name, dest.statement),
                               kind=_EDGE_SWITCH_FALSE, port=dest.port)
    return graph


_CLASS_COLORS = {
    "pure": "lightblue",
    "control": "khaki",
    "tag": "lightsalmon",
    "linkage": "plum",
    "structure": "palegreen",
}

_EDGE_STYLES = {
    _EDGE_LOCAL: 'color="black"',
    _EDGE_SWITCH_FALSE: 'color="red" style="dashed" label="F"',
    _EDGE_LOOP_ENTRY: 'color="blue" label="L"',
    _EDGE_LOOP_EXIT: 'color="blue" style="dashed" label="L⁻¹"',
    _EDGE_CALL: 'color="purple" label="arg"',
    _EDGE_RETURN: 'color="purple" style="dashed" label="ret"',
}


def to_dot(program, title=None):
    """Render the program as Graphviz DOT text, clustered by code block."""
    graph = to_networkx(program)
    lines = ["digraph dataflow {", '  rankdir="TB";', "  node [shape=box];"]
    if title:
        lines.append(f'  label="{title}";')
    for block_name, block in sorted(program.blocks.items()):
        safe = block_name.replace("$", "_")
        lines.append(f"  subgraph cluster_{safe} {{")
        kind = "loop" if block.kind == CodeBlock.LOOP else "procedure"
        lines.append(f'    label="{kind} {block_name}";')
        for node, attrs in graph.nodes(data=True):
            if attrs["block"] != block_name:
                continue
            name = f'"{node[0]}:{node[1]}"'
            color = _CLASS_COLORS.get(attrs["opclass"], "white")
            lines.append(
                f"    {name} [label=\"{node[1]}: {attrs['label']}\" "
                f'style="filled" fillcolor="{color}"];'
            )
        lines.append("  }")
    for src, dst, attrs in graph.edges(data=True):
        style = _EDGE_STYLES.get(attrs.get("kind", _EDGE_LOCAL), "")
        lines.append(
            f'  "{src[0]}:{src[1]}" -> "{dst[0]}:{dst[1]}" [{style}];'
        )
    lines.append("}")
    return "\n".join(lines)


def graph_statistics(program):
    """Structural statistics of a compiled program.

    Returns a dict with instruction counts by opcode class, arc counts,
    fan-out extremes, and the static depth (longest acyclic path) —
    the compile-time counterpart of the interpreter's dynamic critical
    path.
    """
    import networkx as nx

    graph = to_networkx(program)
    by_class = {}
    for _, attrs in graph.nodes(data=True):
        by_class[attrs["opclass"]] = by_class.get(attrs["opclass"], 0) + 1
    fan_outs = [graph.out_degree(node) for node in graph.nodes]
    condensed = nx.condensation(nx.DiGraph(graph))
    depth = nx.dag_longest_path_length(condensed) + 1 if condensed else 0
    return {
        "instructions": graph.number_of_nodes(),
        "arcs": graph.number_of_edges(),
        "by_class": by_class,
        "max_fan_out": max(fan_outs) if fan_outs else 0,
        "mean_fan_out": (sum(fan_outs) / len(fan_outs)) if fan_outs else 0.0,
        "static_depth": depth,
        "blocks": len(program.blocks),
    }
