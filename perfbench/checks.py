"""Output checks that judge cutlab without calling cutlab.

Every function here takes plain numbers and numpy arrays (or objects whose
array attributes it reads) and returns a list of problems; an empty list
means the output passed.  The reference computations use only numpy, scipy
and the standard library: brute-force enumeration, vectorised counting,
closed-form Poisson moments and scipy's Lambert W.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components, shortest_path
from scipy.special import lambertw

# the hero tournament's backedges, as positions in its ordered 7-tuple
HERO_BACKEDGES = frozenset({(1, 3), (4, 6), (1, 7), (2, 7), (3, 7)})
BRUTE_FORCE_MAX_N = 20
SIGMAS = 5.0


# --- graph helpers -----------------------------------------------------------

def component_labels(n, eu, ev) -> np.ndarray:
    """Connected-component label per vertex (scipy, arbitrary numbering)."""
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    mat = coo_matrix((np.ones(len(eu), dtype=np.int8), (eu, ev)), shape=(n, n))
    return connected_components(mat, directed=False)[1]


def has_odd_cycle(n, eu, ev) -> bool:
    """True iff some edge joins two vertices at equal BFS depth parity from
    their component's first vertex (dense all-pairs BFS; small n only)."""
    if len(eu) == 0:
        return False
    mat = coo_matrix((np.ones(len(eu)), (eu, ev)), shape=(n, n))
    dist = shortest_path(mat, directed=False, unweighted=True)
    labels = component_labels(n, eu, ev)
    roots = np.full(labels.max() + 1, n)
    np.minimum.at(roots, labels, np.arange(n))
    depth = dist[roots[labels], np.arange(n)].astype(np.int64)
    return bool((depth[eu] % 2 == depth[ev] % 2).any())


def two_core_mask(n, eu, ev):
    """(vertex mask, edge mask) of the 2-core, by repeated leaf peeling."""
    alive = np.ones(n, dtype=bool)
    live = np.ones(len(eu), dtype=bool)
    while True:
        deg = np.bincount(np.concatenate([eu[live], ev[live]]), minlength=n)
        weak = alive & (deg < 2)
        if not weak.any():
            return alive, live
        alive &= ~weak
        live &= alive[eu] & alive[ev]


def chain_count(n, eu, ev) -> int:
    """Maximal degree-2 chains of a min-degree-2 graph.

    Every edge lies on one chain and a chain of length L has L - 1 interior
    degree-2 vertices, so chains = edges - (degree-2 vertices) + (bare cycle
    components, whose chain has as many edges as vertices).
    """
    if len(eu) == 0:
        return 0
    deg = np.bincount(np.concatenate([eu, ev]), minlength=n)
    labels = component_labels(n, eu, ev)
    has_branch = np.zeros(labels.max() + 1, dtype=bool)
    has_branch[labels[deg >= 3]] = True
    used = np.zeros_like(has_branch)
    used[labels[deg > 0]] = True
    bare_cycles = int((used & ~has_branch).sum())
    return int(len(eu) - (deg == 2).sum() + bare_cycles)


def brute_force_maxcut(n, eu, ev) -> int:
    """Largest cut over all 2^(n-1) labelings with vertex 0 on side 0."""
    if n <= 1 or len(eu) == 0:
        return 0
    if n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute force is limited to n <= {BRUTE_FORCE_MAX_N}")
    counters = np.arange(1 << (n - 1), dtype=np.int32)
    total = np.zeros(counters.size, dtype=np.int16)
    for u, v in zip(np.asarray(eu).tolist(), np.asarray(ev).tolist()):
        bu = (counters >> (u - 1)) & 1 if u else 0
        bv = (counters >> (v - 1)) & 1 if v else 0
        total += (bu ^ bv).astype(np.int16)
    return int(total.max())


def _cut_problems(eu, ev, partition, deleted, cut_size) -> list:
    problems = []
    m = len(eu)
    part = np.asarray(partition)
    dele = np.array(sorted(deleted), dtype=np.int64)
    if dele.size and (dele[0] < 0 or dele[-1] >= m):
        return [f"deleted edge id outside 0..{m - 1}"]
    if part.size and not np.isin(part, (0, 1)).all():
        problems.append("partition has labels other than 0 and 1")
    keep = np.ones(m, dtype=bool)
    keep[dele] = False
    uncut = int((part[eu[keep]] == part[ev[keep]]).sum())
    if uncut:
        problems.append(f"{uncut} edges outside deleted_edge_ids do not cross")
    if cut_size != m - dele.size:
        problems.append(f"cut_size {cut_size} != m - |deleted| = {m - dele.size}")
    return problems


# --- giant_scaling -----------------------------------------------------------

def mu_lambertw(lam: float) -> float:
    """The dual root mu < 1 of mu e^-mu = lam e^-lam, as -W0(-lam e^-lam)."""
    return float(-lambertw(-lam * math.exp(-lam), 0).real)


def kernel_density(x: float):
    """(mean, per-vertex variance) of e(K)/n for Poisson(x) degrees.

    A vertex of degree d >= 3 contributes d/2 kernel edges, so the mean is
    x(1 - e^-x (1 + x))/2 and the second moment is
    (x + x^2 - e^-x (x + 2x^2))/4.
    """
    mean = x * (1.0 - math.exp(-x) * (1.0 + x)) / 2.0
    second = (x + x * x - math.exp(-x) * (x + 2.0 * x * x)) / 4.0
    return mean, second - mean * mean


def kernel_density_sd(x: float, n: int) -> float:
    """Standard deviation of e(K)/n: degree noise plus the Gaussian rate's
    1/sqrt(n) spread, carried through the mean's slope."""
    mean, var = kernel_density(x)
    h = 1e-6
    slope = (kernel_density(x + h)[0] - kernel_density(x - h)[0]) / (2 * h)
    return math.sqrt((var + slope * slope) / n)


# The real giant's chain count scatters around the n -> infinity oracle by
# more than the model's sigma when eps^3 n is small; see README.
REAL_KERNEL_BAND = (0.20, 0.20)


def scaling_trial(eps, n, eu, ev, cut, row) -> list:
    """Checks one maxcut_scaling trial: the cut against the sampled graph,
    the CSV row against numpy recounts, and the statistics against the
    Poisson oracle."""
    eu = np.asarray(eu)
    ev = np.asarray(ev)
    m = len(eu)
    problems = _cut_problems(eu, ev, cut.partition, cut.deleted_edge_ids,
                             cut.cut_size)
    if int(row["m_edges"]) != m:
        problems.append(f"m_edges {row['m_edges']} != sampled {m}")
    if int(row["deficit"]) != len(cut.deleted_edge_ids):
        problems.append("deficit != |deleted_edge_ids|")
    p = (1.0 + eps) / n
    pairs = n * (n - 1) / 2
    if abs(m - pairs * p) > SIGMAS * math.sqrt(pairs * p * (1 - p)):
        problems.append(f"m_edges {m} beyond 5 sigma of {pairs * p:.0f}")

    labels = component_labels(n, eu, ev)
    sizes = np.bincount(labels)
    giant = labels == int(np.argmax(sizes))
    if int(row["giant_v"]) != int(sizes.max()):
        problems.append(f"giant_v {row['giant_v']} != {sizes.max()}")
    inside = giant[eu] & giant[ev]
    remap = np.cumsum(giant) - 1
    gu, gv = remap[eu[inside]], remap[ev[inside]]
    alive, live = two_core_mask(int(giant.sum()), gu, gv)
    core_v, core_e = int(alive.sum()), int(live.sum())
    if (int(row["core_v"]), int(row["core_e"])) != (core_v, core_e):
        problems.append(f"core (v, e) = ({row['core_v']}, {row['core_e']}) "
                        f"!= ({core_v}, {core_e})")
    cmap = np.cumsum(alive) - 1
    chains = chain_count(core_v, cmap[gu[live]], cmap[gv[live]])
    if int(row["kernel_paths"]) != chains:
        problems.append(f"kernel_paths {row['kernel_paths']} != {chains}")

    lam = 1.0 + eps
    mu = mu_lambertw(lam)
    x = lam - mu
    oracle, _ = kernel_density(x)
    sd = kernel_density_sd(x, n)
    model = float(row["model_ek_per_n"])
    if abs(model - oracle) > SIGMAS * sd:
        problems.append(f"model_ek_per_n {model:.6f} beyond 5 sigma of "
                        f"oracle {oracle:.6f}")
    below, above = REAL_KERNEL_BAND
    real = chains / n
    if not oracle * (1 - below) - SIGMAS * sd <= real <= \
            oracle * (1 + above) + SIGMAS * sd:
        problems.append(f"kernel_paths/n {real:.6f} outside the band around "
                        f"oracle {oracle:.6f}")
    p_odd = 1.0 / (1.0 + mu)
    ek = int(row["model_kernel_edges"])
    if ek:
        frac = int(row["model_odd_paths"]) / ek
        if abs(frac - p_odd) > SIGMAS * math.sqrt(p_odd * (1 - p_odd) / ek):
            problems.append(f"model odd fraction {frac:.4f} far from "
                            f"1/(1+mu) = {p_odd:.4f}")
    if chains:
        frac = int(row["odd_paths"]) / chains
        if abs(frac - p_odd) > SIGMAS * math.sqrt(p_odd * (1 - p_odd) / chains):
            problems.append(f"real odd fraction {frac:.4f} far from "
                            f"1/(1+mu) = {p_odd:.4f}")
    return problems


def same_replay(first, again) -> list:
    """A replayed trial must give the first run's cut and CSV row."""
    (cut0, row0), (cut1, row1) = first, again
    if row0 != row1:
        return ["replayed trial gave a different CSV row"]
    if cut0.cut_size != cut1.cut_size or \
            cut0.deleted_edge_ids != cut1.deleted_edge_ids or \
            not np.array_equal(cut0.partition, cut1.partition):
        return ["replayed trial gave a different cut"]
    return []


# --- exact_small -------------------------------------------------------------

def sandwich(n, eu, ev, path_lengths, bracket, cut) -> list:
    """Checks a sandwich_check bracket and the exact cut behind it."""
    eu = np.asarray(eu)
    ev = np.asarray(ev)
    lower, exact, upper = bracket
    problems = []
    if exact is None:
        return ["no exact distance for a core with n <= 30"]
    if not lower <= exact <= upper:
        problems.append(f"bracket violated: {lower} <= {exact} <= {upper}")
    if lower != exact:
        problems.append(f"min_bad_edges {lower} != exact distance {exact}")
    odd = int((np.asarray(path_lengths) % 2).sum())
    if upper != odd:
        problems.append(f"upper {upper} != odd paths {odd}")
    problems += exact_cut(n, eu, ev, cut)
    if exact != len(eu) - cut.cut_size:
        problems.append(f"exact {exact} != m - cut_size")
    return problems


def exact_cut(n, eu, ev, cut) -> list:
    """The witness must realise cut_size; small graphs are brute-forced."""
    part = np.asarray(cut.partition)
    problems = _cut_problems(eu, ev, part, cut.deleted_edge_ids, cut.cut_size)
    crossing = int((part[eu] != part[ev]).sum())
    if crossing != cut.cut_size:
        problems.append(f"witness crosses {crossing} edges, cut_size "
                        f"{cut.cut_size}")
    if n <= BRUTE_FORCE_MAX_N:
        best = brute_force_maxcut(n, eu, ev)
        if best != cut.cut_size:
            problems.append(f"brute force maxcut {best} != {cut.cut_size}")
    return problems


def hom(n, eu, ev, bound, per_ell) -> list:
    """per_ell: (ell, certificate fired, witness mapping or None)."""
    eu = np.asarray(eu)
    ev = np.asarray(ev)
    problems = []
    if bound < 0:
        problems.append(f"negative distance bound {bound}")
    if n <= BRUTE_FORCE_MAX_N and bound != len(eu) - brute_force_maxcut(n, eu, ev):
        problems.append(f"distance {bound} disagrees with brute force")
    for ell, fired, mapping in per_ell:
        if mapping is None:
            continue
        size = 2 * ell + 1
        mapping = np.asarray(mapping)
        if fired:
            problems.append(f"witness at ell={ell} where the certificate fired")
        if mapping.shape != (n,) or mapping.min(initial=0) < 0 or \
                mapping.max(initial=0) >= size:
            problems.append(f"witness at ell={ell} is not a map into C_{size}")
            continue
        diff = (mapping[eu] - mapping[ev]) % size
        if not ((diff == 1) | (diff == size - 1)).all():
            problems.append(f"witness at ell={ell} maps an edge off the cycle")
    return problems


# --- tournaments -------------------------------------------------------------

def backedge_matrix(n, bu, bv) -> np.ndarray:
    """B[i, j] = True iff i < j and the arc between them points j -> i
    (1-based vertices; row and column 0 unused)."""
    mat = np.zeros((n + 1, n + 1), dtype=bool)
    mat[np.asarray(bu), np.asarray(bv)] = True
    return mat


def cyclic_triples(n, bu, bv) -> np.ndarray:
    """All i < j < k whose three arcs form a directed cycle, as rows."""
    b = backedge_matrix(n, bu, bv)
    tri = np.array(list(combinations(range(1, n + 1), 3)), dtype=np.int64)
    if tri.size == 0:
        return tri.reshape(0, 3)
    i, j, k = tri.T
    bij, bjk, bik = b[i, j], b[j, k], b[i, k]
    # forward arcs i->j->k closed by the backedge k->i, or the reverse
    cyc = (~bij & ~bjk & bik) | (bij & bjk & ~bik)
    return tri[cyc]


def coloring(n, bu, bv, colors, k) -> list:
    """Each of the k colour classes must be free of cyclic triples."""
    colors = np.asarray(colors)
    if colors.shape != (n,) or colors.min(initial=0) < 0 or \
            colors.max(initial=0) >= k:
        return [f"colouring is not a map into {k} colours"]
    tri = cyclic_triples(n, bu, bv)
    c = colors[tri - 1]
    mono = int(((c[:, 0] == c[:, 1]) & (c[:, 1] == c[:, 2])).sum())
    return [f"{mono} cyclic triples inside one colour class"] if mono else []


def colorable(n, bu, bv, k) -> bool:
    """Brute force: does some k-colouring avoid monochromatic cyclic
    triples?  k <= 2 only (the first vertex's colour is fixed)."""
    tri = cyclic_triples(n, bu, bv)
    if k == 1 or tri.size == 0:
        return tri.size == 0
    if k != 2:
        raise ValueError("brute force covers k <= 2")
    counters = np.arange(1 << (n - 1), dtype=np.int64)
    ok = np.ones(counters.size, dtype=bool)
    for a, b, c in tri.tolist():
        bits = [(counters >> (v - 2)) & 1 if v > 1 else 0 for v in (a, b, c)]
        ok &= ~((bits[0] == bits[1]) & (bits[1] == bits[2]))
    return bool(ok.any())


def chromatic(n, bu, bv, chi, colors) -> list:
    problems = coloring(n, bu, bv, colors, chi)
    if chi <= 3 and chi >= 2 and colorable(n, bu, bv, chi - 1):
        problems.append(f"a {chi - 1}-colouring exists, chi {chi} not minimal")
    return problems


def two_coloring(n, bu, bv, colors) -> list:
    if colors is None:
        return ["two_coloring found none, brute force finds one"] \
            if colorable(n, bu, bv, 2) else []
    return coloring(n, bu, bv, colors, 2)


def hero_copy(n, bu, bv, found) -> list:
    """A found copy must be increasing and induce exactly the hero's
    backedges among its 21 pairs."""
    if len(found) != 7 or list(found) != sorted(set(found)) or \
            found[0] < 1 or found[-1] > n:
        return [f"hero copy {found} is not an increasing 7-tuple in 1..n"]
    codes = np.asarray(bu, dtype=np.int64) * (n + 1) + np.asarray(bv)
    pos = list(combinations(range(7), 2))
    want = np.array([found[a] * (n + 1) + found[b] for a, b in pos])
    present = np.isin(want, codes)
    got = {(a + 1, b + 1) for (a, b), hit in zip(pos, present) if hit}
    if got != HERO_BACKEDGES:
        return [f"hero copy {found} induces backedges {sorted(got)}"]
    return []


def far_trial(n, p, bu, bv, long_count, alpha) -> list:
    bu = np.asarray(bu)
    bv = np.asarray(bv)
    problems = []
    count = int(((bv - bu) >= alpha * n).sum())
    if count != long_count:
        problems.append(f"long_backedges {long_count} != numpy count {count}")
    pairs = n * (n - 1) / 2
    if abs(len(bu) - pairs * p) > SIGMAS * math.sqrt(pairs * p * (1 - p)):
        problems.append(f"backedges {len(bu)} beyond 5 sigma of {pairs * p:.0f}")
    return problems


# --- edge_list_io ------------------------------------------------------------

def text_file(path, header) -> list:
    """A written file starts with the given header line and holds one
    nonblank line per record it announces."""
    with open(path, "rb") as fh:
        data = fh.read()
    first = data.split(b"\n", 1)[0].decode()
    problems = [] if first == header else [f"header {first!r} != {header!r}"]
    records = int(header.split()[1])
    lines = data.count(b"\n")
    if not data.endswith(b"\n") or lines < records + 1:
        problems.append(f"{path} holds {lines} lines for {records} records")
    return problems


def same_arrays(what, pairs) -> list:
    """pairs: (name, expected, got) array triples that must be identical."""
    problems = []
    for name, want, got in pairs:
        want = np.asarray(want)
        got = np.asarray(got)
        if want.shape != got.shape or not np.array_equal(want, got):
            problems.append(f"{what}: {name} differs after the round trip")
    return problems


def same_graph(want, got) -> list:
    if want.n != got.n:
        return [f"graph: n {got.n} != {want.n}"]
    return same_arrays("graph", [("eu", want.eu, got.eu), ("ev", want.ev, got.ev)])


def same_core(want, got) -> list:
    problems = same_graph(want.graph, got.graph)
    problems += same_arrays("core", [
        ("kernel.eu", want.kernel.eu, got.kernel.eu),
        ("kernel.ev", want.kernel.ev, got.kernel.ev),
        ("kernel_to_core", want.kernel_to_core, got.kernel_to_core),
        ("path_lengths", want.path_lengths, got.path_lengths),
    ])
    if len(want.path_edge_ids) != len(got.path_edge_ids) or not all(
            np.array_equal(a, b)
            for a, b in zip(want.path_edge_ids, got.path_edge_ids)):
        problems.append("core: path_edge_ids differ after the round trip")
    return problems


def same_tournament(want, got) -> list:
    if want.n != got.n:
        return [f"tournament: n {got.n} != {want.n}"]
    return same_arrays("tournament",
                       [("bu", want.bu, got.bu), ("bv", want.bv, got.bv)])
