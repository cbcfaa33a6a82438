"""Correctness oracles that share no code with specgraph.

Each check takes the text a specgraph op printed and returns a list of
problems (empty when the output is right).  The exact checks evaluate
the vertex-size secular kernel

    secular(z) ~ (z^2 - 1)^(E - V) * det(2z A - (z^2 + 1) D)

(von Below, LAA 71, 1985) and the normalized-Laplacian charpoly
det(mu D - (D - A)) / det D at integer points with their own Bareiss
elimination, whereas specgraph interpolates the 2E x 2E scattering
determinant; the numeric checks rebuild the M-function with numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, permutations

import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Graph:
    """A graph file as read by the benchmark: vertices 0..n-1 in file order."""

    n: int
    edges: tuple[tuple[int, int, Fraction], ...]
    contacts: tuple[int, ...]

    def subdivided(self) -> "Graph":
        """Integer-length edges split into unit edges (new vertices appended)."""
        edges, n = [], self.n
        for u, v, length in self.edges:
            if length.denominator != 1:
                raise ValueError(f"length {length} is not an integer")
            prev = u
            for _ in range(int(length) - 1):
                edges.append((prev, n, Fraction(1)))
                prev, n = n, n + 1
            edges.append((prev, v, Fraction(1)))
        return Graph(n, tuple(edges), self.contacts)

    def adjacency(self) -> list[list[int]]:
        """Discrete shadow; a loop adds 2 to its diagonal entry."""
        adj = [[0] * self.n for _ in range(self.n)]
        for u, v, _ in self.edges:
            adj[u][v] += 1
            adj[v][u] += 1
        return adj

    def components(self) -> int:
        parent = list(range(self.n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v, _ in self.edges:
            parent[find(u)] = find(v)
        return len({find(v) for v in range(self.n)})

    def betti(self) -> int:
        return len(self.edges) - self.n + self.components()


def read_graph(text: str) -> Graph:
    ids: dict[str, int] = {}
    contacts, edges = [], []
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if not tokens or tokens[0] == "graph":
            continue
        if tokens[0] == "vertex":
            ids[tokens[1]] = len(ids)
            if tokens[2:] == ["contact"]:
                contacts.append(ids[tokens[1]])
        elif tokens[0] == "edge":
            length = Fraction(tokens[3]) if len(tokens) > 3 else Fraction(1)
            edges.append((ids[tokens[1]], ids[tokens[2]], length))
        else:
            raise ValueError(f"unknown directive {tokens[0]!r}")
    return Graph(len(ids), tuple(edges), tuple(contacts))


# ---------------------------------------------------------------------------
# exact evaluation
# ---------------------------------------------------------------------------

def int_det(rows: list[list[int]]) -> int:
    """Determinant of an integer matrix by fraction-free elimination."""
    a = [row[:] for row in rows]
    n, sign, prev = len(a), 1, 1
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if a[i][k]), None)
        if pivot_row is None:
            return 0
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * (a[-1][-1] if n else 1)


def vertex_kernel(g: Graph, z: int) -> Fraction:
    """(z^2-1)^(E-V) det(2zA - (z^2+1)D) of the unit subdivision at integer z."""
    u = g.subdivided()
    adj = u.adjacency()
    deg = [sum(row) for row in adj]
    m = [[2 * z * adj[i][j] - ((z * z + 1) * deg[i] if i == j else 0)
          for j in range(u.n)] for i in range(u.n)]
    return Fraction(z * z - 1) ** (len(u.edges) - u.n) * int_det(m)


def poly_at(coeffs: list[int] | list[Fraction], x: int | Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


KERNEL_POINTS = (2, 3, 5, -4, 7)


def check_secular_line(line: str, g: Graph) -> list[str]:
    """The printed `poly:` line is proportional to the vertex kernel."""
    head, _, rest = line.partition(":")
    if head != "poly":
        return [f"not a polynomial line: {line[:60]!r}"]
    coeffs = [int(t) for t in rest.split()]
    n_unit = len(g.subdivided().edges)
    problems = []
    if len(coeffs) - 1 != 2 * n_unit:
        problems.append(f"degree {len(coeffs) - 1} != 2E = {2 * n_unit}")
    if coeffs[-1] <= 0 or math.gcd(*coeffs) != 1:
        problems.append("polynomial not normalized")
    values = [(poly_at(coeffs, z), vertex_kernel(g, z)) for z in KERNEL_POINTS]
    p0, k0 = values[0]
    for (p, k), z in zip(values[1:], KERNEL_POINTS[1:]):
        if p * k0 != k * p0:
            problems.append(f"not proportional to the vertex kernel at z={z}")
    return problems


def check_ln_line(line: str, prefix: str, g: Graph) -> list[str]:
    """The printed Ln charpoly equals det(mu D - (D - A)) / det D exactly."""
    head, _, rest = line.partition(":")
    if head != prefix:
        return [f"expected {prefix} line, got {line[:60]!r}"]
    coeffs = [Fraction(t) for t in rest.split()]
    adj = g.adjacency()
    deg = [sum(row) for row in adj]
    if len(coeffs) != g.n + 1:
        return [f"{prefix} degree {len(coeffs) - 1} != V = {g.n}"]
    det_d = math.prod(deg)
    for mu in (2, 3, -1, 5):
        m = [[(mu - 1) * deg[i] + adj[i][j] if i == j else adj[i][j]
              for j in range(g.n)] for i in range(g.n)]
        if poly_at(coeffs, mu) * det_d != int_det(m):
            return [f"{prefix} wrong at mu={mu}"]
    return []


def normalized_laplacian_eigs(g: Graph) -> np.ndarray:
    adj = np.array(g.adjacency(), dtype=float)
    inv_sqrt = 1.0 / np.sqrt(adj.sum(axis=1))
    return np.linalg.eigvalsh(np.eye(g.n) - inv_sqrt[:, None] * adj * inv_sqrt[None, :])


def parse_points(text: str) -> list[tuple[float, int]]:
    points = []
    for line in text.splitlines():
        if not line or line.startswith(("#", "lambda0")):
            continue
        k, mult = line.split()
        points.append((float(k), int(mult)))
    return points


def check_spectrum(text: str, g: Graph) -> list[str]:
    """The fundamental roots are right and the lambda0 line counts components."""
    last = text.rstrip("\n").rsplit("\n", 1)[-1]
    problems = check_roots(parse_points(text), g)
    if last != f"lambda0_multiplicity {g.subdivided().components()}":
        problems.append(f"bad lambda0 line {last!r}")
    return problems


def check_roots(points: list[tuple[float, int]], g: Graph) -> list[str]:
    """Multiplicities sum to 2E; generic roots satisfy 1 - cos k = mu."""
    u = g.subdivided()
    problems = []
    total = sum(m for _, m in points)
    if total != 2 * len(u.edges):
        problems.append(f"multiplicities sum to {total}, not 2E = {2 * len(u.edges)}")
    mus = normalized_laplacian_eigs(u)
    for k, _ in points:
        if abs(k / math.pi - round(k / math.pi)) < 1e-9:
            continue
        if not 0.0 < k <= TWO_PI + 1e-9:
            problems.append(f"root k={k} outside (0, 2pi]")
        elif np.min(np.abs(mus - (1.0 - math.cos(k)))) > 1e-6:
            problems.append(f"root k={k:.9g} has no normalized-Laplacian partner")
    return problems


# ---------------------------------------------------------------------------
# M-function
# ---------------------------------------------------------------------------

def m_matrix(g: Graph, lam: float) -> np.ndarray | None:
    """Dirichlet-to-Neumann map on the contacts, or None near a singularity."""
    t = np.zeros((g.n, g.n))
    for u, v, length in g.edges:
        length = float(length)
        if lam > 0:
            k = math.sqrt(lam)
            s = math.sin(k * length)
            if abs(s) < 1e-6:
                return None
            a, b = -k * math.cos(k * length) / s, k / s
        elif lam < 0:
            kappa = math.sqrt(-lam)
            a, b = -kappa / math.tanh(kappa * length), kappa / math.sinh(kappa * length)
        else:
            a, b = -1.0 / length, 1.0 / length
        t[u, u] += a
        t[v, v] += a
        t[u, v] += b
        t[v, u] += b
    contact = list(g.contacts)
    interior = [v for v in range(g.n) if v not in set(contact)]
    if not interior:
        return t[np.ix_(contact, contact)]
    c = t[np.ix_(interior, interior)]
    if np.linalg.cond(c) > 1e8:
        return None
    b = t[np.ix_(contact, interior)]
    return t[np.ix_(contact, contact)] - b @ np.linalg.solve(c, b.T)


def check_mfun(text: str, g: Graph, lam: float) -> list[str]:
    expected = m_matrix(g, lam)
    if text.startswith("singular"):
        return [] if expected is None else [f"flagged singular at lambda={lam}"]
    got = np.array([[float(x) for x in line.split()] for line in text.splitlines()])
    if expected is None:
        return []
    if got.shape != expected.shape or not np.allclose(got, expected, rtol=1e-8, atol=1e-8):
        return [f"M-function differs from the oracle at lambda={lam}"]
    if not np.allclose(got, got.T, atol=1e-9):
        return ["M-function not symmetric"]
    return []


def check_sweep(text: str, g: Graph) -> list[str]:
    rows = text.splitlines()[1:]
    problems = []
    for row in rows[:: max(len(rows) // 8, 1)]:
        cells = row.split(",")
        if cells[1] != "1":
            continue
        lam = float(cells[0])
        expected = m_matrix(g, lam)
        if expected is None:
            continue
        got = np.array([float(x) for x in cells[2:-1]])
        want = np.linalg.eigvalsh(expected)
        if not np.allclose(got, want, rtol=1e-7, atol=1e-7):
            problems.append(f"Steklov eigenvalues differ from the oracle at lambda={lam}")
    return problems


def check_detect(text: str, secular: dict[float, int]) -> list[str]:
    """Each detected (k, m) has secular multiplicity >= m at k mod 2pi.

    `secular` maps fundamental roots in (0, 2pi] to their multiplicities;
    k = 2pi*j reduces to the root 2pi, not to 0.
    """
    problems = []
    for k, m in parse_points(text):
        kf = math.fmod(k, TWO_PI)
        if kf < 1e-6:
            kf += TWO_PI
        near = [mult for root, mult in secular.items() if abs(root - kf) < 1e-6]
        have = near[0] if near else 0
        if have < m:
            problems.append(f"detect k={k:.9g} mult {m} > secular multiplicity {have}")
    return problems


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Family:
    key: str
    members: tuple[tuple[str, int], ...]   # (canonical hex, betti)


def parse_search(text: str) -> tuple[int, list[Family]]:
    lines = text.splitlines()
    n_graphs = int(lines[0].split()[1])
    families: list[Family] = []
    key, members = "", []
    for line in lines[2:]:
        if line.startswith("family "):
            if members:
                families.append(Family(key, tuple(members)))
            key, members = "", []
        elif line.startswith("  key "):
            key = line[6:]
        elif line.startswith("  member "):
            parts = line.split()
            members.append((parts[1], int(parts[3])))
    if members:
        families.append(Family(key, tuple(members)))
    return n_graphs, families


def adjacency_from_hex(code: str) -> list[list[int]]:
    raw = bytes.fromhex(code)
    n = math.isqrt(len(raw))
    return [list(raw[i * n:(i + 1) * n]) for i in range(n)]


def connected_atlas_count(n: int) -> int:
    import networkx as nx
    return sum(1 for h in nx.graph_atlas_g()
               if h.number_of_nodes() == n and nx.is_connected(h))


def isomorphic(adj1: list[list[int]], adj2: list[list[int]]) -> bool:
    import networkx as nx
    return nx.is_isomorphic(nx.from_numpy_array(np.array(adj1)),
                            nx.from_numpy_array(np.array(adj2)))


def check_search_secular(text: str, n: int, shadows: list[list[list[int]]]) -> list[str]:
    """Class count from the graph atlas; one non-singleton family, holding the shadows."""
    n_graphs, families = parse_search(text)
    problems = []
    atlas = connected_atlas_count(n)
    if n_graphs != atlas or sum(len(f.members) for f in families) != atlas:
        problems.append(f"{n_graphs} classes, graph atlas has {atlas}")
    big = [f for f in families if len(f.members) > 1]
    if len(big) != 1:
        problems.append(f"{len(big)} non-singleton secular families, expected 1")
    else:
        members = [adjacency_from_hex(code) for code, _ in big[0].members]
        for shadow in shadows:
            if not any(isomorphic(shadow, m) for m in members):
                problems.append("a shadow of the simplest pair is missing from the family")
    return problems


def check_search_ln(ln_text: str, secular_text: str) -> list[str]:
    """Grouping by (Ln key, Betti) reproduces the secular families exactly."""
    n_ln, ln_families = parse_search(ln_text)
    n_sec, sec_families = parse_search(secular_text)
    if n_ln != n_sec:
        return [f"ln search has {n_ln} classes, secular search {n_sec}"]
    by_ln = {}
    for fam in ln_families:
        for code, bet in fam.members:
            by_ln.setdefault((fam.key, bet), set()).add(code)
    by_sec = {frozenset(code for code, _ in fam.members) for fam in sec_families}
    if {frozenset(s) for s in by_ln.values()} != by_sec:
        return ["(Ln, Betti) classes differ from the secular families"]
    return []


def connected_multigraph_count(n: int, max_edges: int) -> int:
    """Connected multigraphs with loops on exactly n vertices, 1..max_edges edges."""
    slots = [(u, v) for u in range(n) for v in range(u, n)]
    seen: set[tuple[int, ...]] = set()
    perms = list(permutations(range(n)))
    for m in range(1, max_edges + 1):
        for choice in combinations_with_replacement(range(len(slots)), m):
            edges = [slots[i] for i in choice]
            parent = list(range(n))

            def find(x: int) -> int:
                while parent[x] != x:
                    x = parent[x]
                return x

            for u, v in edges:
                parent[find(u)] = find(v)
            if len({find(v) for v in range(n)}) != 1:
                continue
            seen.add(min(tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in edges))
                         for p in perms))
    return len(seen)


def check_search_multi(text: str, n: int, max_edges: int) -> list[str]:
    n_graphs, families = parse_search(text)
    expected = connected_multigraph_count(n, max_edges)
    if n_graphs != expected or sum(len(f.members) for f in families) != expected:
        return [f"{n_graphs} multigraph classes, brute force finds {expected}"]
    return []
