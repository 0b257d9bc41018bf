"""GAP sssp: single-source shortest paths (Bellman-Ford sweeps with early
exit).

The relaxation test ``nd < dist[v]`` depends on a random-access load that
frequently misses — exactly the "mispredicted branches that depend on main
memory accesses" the paper identifies as the driver of long wrong-path
windows.
"""

from __future__ import annotations

import numpy as np

from repro.workloads import graphs
from repro.workloads.base import Workload, build_program

INF = 1_000_000_000

SOURCE = """
int row_ptr[{n1}];
int col[{m}];
int weights[{m}];
int dist[{n}];

void main() {{
    int n = {n};
    int inf = {inf};
    for (int i = 0; i < n; i += 1) {{
        dist[i] = inf;
    }}
    dist[{source}] = 0;
    int changed = 1;
    int rounds = 0;
    while (changed && rounds < {max_rounds}) {{
        changed = 0;
        for (int u = 0; u < n; u += 1) {{
            int du = dist[u];
            if (du < inf) {{
                int rb = row_ptr[u];
                int re = row_ptr[u + 1];
                for (int j = rb; j < re; j += 1) {{
                    int v = col[j];
                    int nd = du + weights[j];
                    if (nd < dist[v]) {{
                        dist[v] = nd;
                        changed = 1;
                    }}
                }}
            }}
        }}
        rounds += 1;
    }}
    int sum = 0;
    for (int i = 0; i < n; i += 1) {{
        int d = dist[i];
        if (d < inf) {{
            sum += d;
        }}
    }}
    print_int(sum);
}}
"""

MAX_ROUNDS = {"tiny": 32, "small": 24, "medium": 16}


def reference(graph: graphs.CSRGraph, source: int, max_rounds: int) -> int:
    """Distance sum, from an exact replica of the kernel's sweep order.
    The sweeps converge to true shortest paths well within
    ``max_rounds`` for these diameters, and the replica also matches a
    truncated run."""
    n = graph.num_nodes
    dist = np.full(n, INF, dtype=np.int64)
    dist[source] = 0
    row_ptr, col, weights = graph.row_ptr, graph.col, graph.weights
    for _ in range(max_rounds):
        changed = False
        for u in range(n):
            du = dist[u]
            if du < INF:
                for j in range(row_ptr[u], row_ptr[u + 1]):
                    nd = du + weights[j]
                    if nd < dist[col[j]]:
                        dist[col[j]] = nd
                        changed = True
        if not changed:
            break
    return int(dist[dist < INF].sum())


def build(scale: str = "small", seed: int = 4,
          check: bool = True) -> Workload:
    from repro.workloads.gap import GRAPH_SCALES
    n, degree = GRAPH_SCALES[scale]
    graph = graphs.with_weights(graphs.power_law(n, degree, seed=seed),
                                seed=seed + 100)
    source_vertex = n // 5
    max_rounds = MAX_ROUNDS[scale]
    src = SOURCE.format(n=n, n1=n + 1, m=graph.num_edges, inf=INF,
                        source=source_vertex, max_rounds=max_rounds)
    program = build_program(src, {
        "row_ptr": graph.row_ptr,
        "col": graph.col,
        "weights": graph.weights,
    })
    expected = [reference(graph, source_vertex, max_rounds)] if check \
        else None
    return Workload("sssp", "gap", program,
                    description="Bellman-Ford SSSP sweeps (GAP)",
                    expected_output=expected,
                    meta={"nodes": n, "edges": graph.num_edges,
                          "scale": scale, "seed": seed})
