#!/usr/bin/env python3
"""Quickstart: detect overlapping communities and keep them fresh under edits.

Builds a small social-style graph with two friend groups sharing one member,
runs rSLPA once, then feeds it a batch of edge changes and updates the
result incrementally — the core workflow of the paper.

Run:  python examples/quickstart.py
"""

from repro import EditBatch, Graph, RSLPADetector


def build_graph() -> Graph:
    """Two tight friend groups; Grace (8) belongs to both."""
    graph = Graph()
    group_a = [0, 1, 2, 3]     # alice, bob, carol, dan
    group_b = [4, 5, 6, 7]     # erin, frank, heidi, ivan
    for group in (group_a, group_b):
        for i, u in enumerate(group):
            for v in group[i + 1:]:
                graph.add_edge(u, v)
    grace = 8
    for friend in (0, 1, 4, 5):
        graph.add_edge(grace, friend)
    return graph


def show(cover, names):
    for i, community in enumerate(sorted(cover, key=lambda c: sorted(c))):
        members = ", ".join(names[v] for v in sorted(community))
        print(f"  community {i}: {{{members}}}")
    overlap = cover.overlapping_vertices()
    if overlap:
        print(f"  overlapping members: {[names[v] for v in sorted(overlap)]}")


def main() -> None:
    names = ["alice", "bob", "carol", "dan", "erin", "frank", "heidi", "ivan",
             "grace", "judy"]
    graph = build_graph()
    print(f"graph: {graph.num_vertices} people, {graph.num_edges} friendships")

    # --- static detection -------------------------------------------------
    # backend="fast" runs the vectorised CSR substrate; "reference" is the
    # pure-Python propagator.  Both are bit-identical per seed, for any
    # vertex ids but -1 ("auto", the default, picks fast).
    detector = RSLPADetector(
        graph, seed=7, iterations=150, tau_step=0.005, backend="fast"
    )
    detector.fit()
    print("\ncommunities on the initial graph:")
    show(detector.communities(), names)

    # --- dynamic maintenance ----------------------------------------------
    # Judy (9) joins group B; the bridge alice-grace breaks.
    batch = EditBatch.build(
        insertions=[(9, 4), (9, 5), (9, 6), (9, 7)],
        deletions=[(8, 0)],
    )
    report = detector.update(batch)
    print(
        f"\napplied batch of {batch.size} edits: "
        f"{report.repicked} labels repicked, "
        f"{report.touched_labels} labels touched "
        f"(out of {detector.label_state.total_slots()})"
    )
    print("\ncommunities after the update (no recomputation from scratch):")
    show(detector.communities(), names)


if __name__ == "__main__":
    main()
