"""Hilbert series of fixed rings: scalar, per-vertex, and full matrix form.

For a finite group of diagonal automorphisms, averaging the trace functions
over the group yields the Hilbert series of the fixed ring.  The matrix
variant records, for each pair of vertices, the series of paths between them
that survive the averaging; its row sums recover the per-vertex series.
"""

from preproj import generate_group, make_aut, molien_report
from preproj.parsing import format_ratfun_factored


def show(G, title):
    report = molien_report(G)
    print(title)
    print("  group order:", G.order)
    print("  fixed-ring Hilbert series:", format_ratfun_factored(report.scalar))
    for j, entry in enumerate(report.vector, start=1):
        print("  vertex %d: %s" % (j, format_ratfun_factored(entry)))
    print("  matrix:")
    for i in range(G.n):
        print("    [%s]" % ", ".join(
            format_ratfun_factored(report.matrix.matrix[i, j]) for j in range(G.n)
        ))
    print()


show(generate_group([make_aut(3, [1, 1, 1], [-1, -1, -1])]),
     "half-turn group (order 2)")
show(generate_group([make_aut(3, ["1", "-1", "-1"],
                              ["zeta(3)", "-zeta(3)", "-zeta(3)"])]),
     "order-6 cyclic group")
show(generate_group([make_aut(3, ["zeta(3)", "1", "zeta(3)^2"],
                              ["1", "zeta(3)", "zeta(3)^2"])]),
     "order-3 cyclic group")
