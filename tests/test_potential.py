import gc
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from voract import (
    GeometryError,
    PointSet,
    extended_gradient,
    f_eval,
    in_p_eta,
    min_norm_point,
    slope_sup_oracle,
    zone_table,
)
from voract import potential as potential_module
from voract.mag import build_mag, interior_balance_verdict
from voract.potential import (
    _circumcenter,
    _classify,
    _pair_probes,
    batch_field,
    class_ids,
    same_zone,
)


def test_field_values(line_k):
    assert f_eval([0.0], line_k) == pytest.approx(-0.5)
    assert f_eval([-0.3], line_k) == pytest.approx(-0.245)
    assert f_eval([1.0], line_k) == 0.0


def test_extended_gradient_examples(line_k, triangle_k):
    info = extended_gradient([0.0], line_k)
    assert np.allclose(info.eta, [0.0]) and np.allclose(info.grad, [0.0])
    assert info.slope_sq == 0.0

    info = extended_gradient([0.0, -1.0], triangle_k)
    assert info.opt == (0, 2)
    assert np.allclose(info.eta, [0.0, 0.0])
    assert np.allclose(info.grad, [0.0, 1.0])

    info = extended_gradient([-0.3], line_k)
    assert np.allclose(info.eta, [-1.0])
    assert np.allclose(info.grad, [-0.7])
    assert info.slope_sq == pytest.approx(0.49)


def test_gradient_invariants_random(grid3_k):
    rng = np.random.default_rng(8)
    for _ in range(200):
        x = rng.normal(size=2) * 2 + 1.0
        info = extended_gradient(x, grid3_k)
        assert np.array_equal(info.grad, info.eta - info.x)
        assert info.slope_sq <= -2.0 * info.f_value + 1e-9
        if len(info.opt) == 1:
            assert info.slope_sq == pytest.approx(-2.0 * info.f_value, abs=1e-9)


def _assert_kernel_matches_scalar(probes, kset):
    etas, s, tie_mask, groups = batch_field(probes, kset)
    n = probes.shape[0]
    firsts = [int(rows[0]) for _, rows in groups]
    assert firsts == sorted(firsts)
    assert len({cls for cls, _ in groups}) == len(groups)
    assert all(np.all(np.diff(rows) > 0) for _, rows in groups)
    assert np.array_equal(np.sort(np.concatenate([rows for _, rows in groups])), np.arange(n))
    ids, registry = class_ids(n, groups)
    assert registry == [cls for cls, _ in groups]
    classes = [registry[i] for i in ids]
    for k in range(n):
        info = extended_gradient(probes[k], kset)
        assert classes[k] == info.opt
        assert np.allclose(etas[k], info.eta, rtol=0.0, atol=1e-9)
        # Both share the class's zone value; check it against the row's own projection.
        projection = min_norm_point(kset.points[list(classes[k])], probes[k])
        assert np.allclose(etas[k], projection, rtol=0.0, atol=1e-9)
        assert s[k] == pytest.approx(info.slope_sq, rel=0.0, abs=1e-9)
        assert tie_mask[k] == (len(classes[k]) >= 2)


def test_batch_matches_scalar(triangle_k):
    rng = np.random.default_rng(4)
    probes = rng.normal(size=(60, 2)) * 1.5
    probes = np.vstack([probes, [[0.0, -0.5], [0.0, 0.0]]])
    _assert_kernel_matches_scalar(probes, triangle_k)


@st.composite
def _sites_and_probes(draw):
    d = draw(st.integers(1, 3))
    quarter = st.integers(-16, 16)  # multiples of 1/4 in [-4, 4]
    cells = draw(st.lists(st.tuples(*[quarter] * d), min_size=2, max_size=7, unique=True))
    sites = np.array(cells, dtype=float) / 4.0
    coord = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)
    randoms = draw(st.lists(st.tuples(*[coord] * d), max_size=12))
    probes = [sites, 0.5 * (sites[:, None, :] + sites[None, :, :]).reshape(-1, d)]
    centers = [_circumcenter(sites[list(t)]) for t in itertools.combinations(range(len(sites)), 3)]
    probes.append(np.array([c for c in centers if c is not None]).reshape(-1, d))
    probes.append(np.array(randoms, dtype=float).reshape(-1, d))
    return PointSet(sites), np.vstack(probes)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_sites_and_probes())
def test_batch_field_matches_scalar_property(case):
    kset, probes = case
    _assert_kernel_matches_scalar(probes, kset)


def test_far_probe_without_equidistance_locus_projects_itself():
    # At 1e10 the three collinear sites tie within the relative tolerance,
    # but the class has no equidistance locus: each row takes its own hull
    # projection, in either row order, as extended_gradient does.
    kset = PointSet([[0.0], [1.0], [2.0]])
    for rows in ([[1e10], [-1e10]], [[-1e10], [1e10]]):
        etas, s, tie_mask, _ = batch_field(np.array(rows), kset)
        assert tie_mask.all()
        for k, x in enumerate(rows):
            info = extended_gradient(x, kset)
            assert info.eta[0] == etas[k, 0] == (2.0 if x[0] > 0 else 0.0)
            assert info.slope_sq == s[k] <= -2.0 * info.f_value
    # A far pair tie keeps its class's zone value, the midpoint.
    pair = PointSet([[0.0], [1.0]])
    far = np.array([[1e10]])
    assert extended_gradient(far[0], pair).eta[0] == batch_field(far, pair)[0][0, 0] == 0.5


def test_batch_field_is_row_order_independent():
    # Three rows of one pair class, the second within the tie tolerance of
    # the bisector x = 1 but not on it: every row order gives every row the
    # same zone value, bit for bit.
    kset = PointSet([[0.0, 0.0], [2.0, 0.0], [1.0, 20.0]])
    rows = np.array([[1.0, 5.0], [1.0 + 1e-10, -7.0], [1.0, 0.5]])
    ref = batch_field(rows, kset)
    assert ref[2].all() and np.all(ref[0] == [1.0, 0.0])
    for perm in itertools.permutations(range(3)):
        etas, s, tie_mask, _ = batch_field(rows[list(perm)], kset)
        inv = np.argsort(perm)
        assert np.array_equal(etas[inv], ref[0]) and np.array_equal(s[inv], ref[1])
        assert np.array_equal(tie_mask[inv], ref[2])


@st.composite
def _sites_and_tie_rows(draw):
    d = draw(st.integers(1, 4))
    quarter = st.integers(-12, 12)
    cells = draw(st.lists(st.tuples(*[quarter] * d), min_size=2, max_size=9, unique=True))
    sites = np.array(cells, dtype=float) / 4.0
    coord = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
    randoms = np.array(draw(st.lists(st.tuples(*[coord] * d), max_size=20)), dtype=float)
    mids = 0.5 * (sites[:, None, :] + sites[None, :, :]).reshape(-1, d)
    return PointSet(sites), np.vstack([randoms.reshape(-1, d), mids, sites])


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_sites_and_tie_rows())
def test_batch_field_independent_of_its_block_size(case):
    # Blocks of one row, of a few rows and of a few hundred rows classify
    # every row as one block does, bit for bit, and group them the same way.
    kset, rows = case
    ref_etas, ref_s, ref_ties, ref_groups = batch_field(rows, kset)
    for bound in (1, 7, 997):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(potential_module, "KERNEL_CHUNK_ROW_SITES", bound)
            etas, s, ties, groups = batch_field(rows, kset)
        assert etas.tobytes() == ref_etas.tobytes() and s.tobytes() == ref_s.tobytes()
        assert ties.tobytes() == ref_ties.tobytes()
        assert [(cls, r.tolist()) for cls, r in groups] == [
            (cls, r.tolist()) for cls, r in ref_groups]


def _traced_peak(rows, kset) -> int:
    """Peak bytes ``tracemalloc`` sees during one ``batch_field`` call."""
    tracemalloc.start()
    try:
        batch_field(rows, kset)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_batch_field_memory_is_one_block():
    # 200,000 rows x 50 sites is ten million row-sites; the kernel holds one
    # block of distance matrix at a time, not the whole call's.
    rng = np.random.default_rng(0)
    kset = PointSet(rng.integers(-20, 21, size=(50, 3)) / 4.0 + rng.random((50, 3)) * 1e-3)
    rows = rng.uniform(-6.0, 6.0, size=(200_000, 3))
    assert _traced_peak(rows, kset) < 4 * 8 * potential_module.KERNEL_CHUNK_ROW_SITES


def _reference_classify(nodes, kset):
    """The dense ``_classify`` as a rows x sites block, kept verbatim: its
    minimum, tie count and ``argmin`` run along each row's sites."""
    pts = kset.points
    d2 = np.einsum("ij,ij->i", nodes, nodes)[:, None] + np.einsum("ij,ij->i", pts, pts)
    d2 -= 2.0 * nodes @ pts.T
    dmin = np.min(np.maximum(d2, 0.0, out=d2), axis=1)
    ties = d2 <= (1.0 + kset.tie_tolerance) * dmin[:, None]
    tie = np.sum(ties, axis=1) >= 2
    return np.argmin(d2, axis=1), tie, np.packbits(ties[tie], axis=1)


def _assert_classify_matches_reference(rows, kset):
    assert kset.n < potential_module.TREE_MIN_SITES  # the dense block, not the tree
    out, ref = _classify(rows, kset), _reference_classify(rows, kset)
    for a, b in zip(out, ref):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _lattice_sites(rng, d, n):
    """``n`` distinct random points of the quarter lattice around the origin."""
    half = int(np.ceil(n ** (1.0 / d))) + 1
    cells = np.array(list(itertools.product(range(-half, half + 1), repeat=d)))
    return cells[np.sort(rng.choice(len(cells), size=n, replace=False))] / 4.0


# 511 quarter-lattice sites on a line are too close for a tie tolerance of 1e-3.
@pytest.mark.parametrize("d, n, tol", [
    (d, n, tol) for d in (1, 2, 3, 4) for n in (2, 3, 40, 511) for tol in (1e-9, 1e-3)
    if not (d == 1 and n == 511 and tol == 1e-3)])
def test_classify_matches_the_row_major_reference(d, n, tol):
    # Rows on the sites, on pair midpoints, on triple circumcenters, at the
    # origin and at random: the sites x rows block gives every row the
    # nearest site, tie flag and packed tie mask of the rows x sites block,
    # bit for bit, in one call and in calls of zero and one row.
    rng = np.random.default_rng(1000 * d + n)
    kset = PointSet(_lattice_sites(rng, d, n), tie_tolerance=tol)
    sites = kset.points
    pairs = rng.integers(0, n, size=(600, 2))
    mids = 0.5 * (sites[pairs[:, 0]] + sites[pairs[:, 1]])
    triples = [rng.choice(n, size=3, replace=False) for _ in range(200 if n >= 3 else 0)]
    centers = [c for c in (_circumcenter(sites[t]) for t in triples) if c is not None]
    rows = np.vstack([sites, mids, np.reshape(centers, (-1, d)), np.zeros((1, d)),
                      rng.uniform(-3.0, 3.0, size=(50, d))])
    _assert_classify_matches_reference(rows, kset)
    _assert_classify_matches_reference(rows[:0], kset)
    for row in (sites[0], mids[0], np.zeros(d), rows[-1]):
        _assert_classify_matches_reference(row[None, :], kset)


def _on_tree(monkeypatch, on: bool) -> None:
    monkeypatch.setattr(potential_module, "TREE_MIN_SITES", 1 if on else 10**9)


def _assert_tree_matches_dense(rows, kset):
    """The tree path's ``batch_field`` and ``_classify`` equal the dense
    path's: byte for byte, except ``nearest`` of a tied row."""
    out = {}
    for on in (False, True):
        with pytest.MonkeyPatch.context() as patch:
            _on_tree(patch, on)
            out[on] = batch_field(rows, kset), _classify(rows, kset)
    (dense, (near, tie, bits)), (tree, (t_near, t_tie, t_bits)) = out[False], out[True]
    for a, b in zip(dense[:3], tree[:3]):
        assert a.tobytes() == b.tobytes()
    assert [(cls, r.tolist()) for cls, r in dense[3]] == [(cls, r.tolist()) for cls, r in tree[3]]
    assert tie.tobytes() == t_tie.tobytes() and bits.tobytes() == t_bits.tobytes()
    assert near[~tie].tobytes() == t_near[~tie].tobytes()
    return tree


@st.composite
def _tree_cases(draw):
    kset, rows = draw(_sites_and_tie_rows())
    sites, d = kset.points, kset.dim
    centers = [_circumcenter(sites[list(t)]) for t in itertools.combinations(range(kset.n), 3)]
    offsets = _pair_probes(sites, np.stack(np.triu_indices(kset.n, 1), axis=1))[1]
    tol = draw(st.sampled_from([1e-9, 1e-3]))
    probes = [rows, np.array([c for c in centers if c is not None]).reshape(-1, d), offsets,
              1e3 + rows]
    return PointSet(sites, tie_tolerance=tol), np.vstack(probes)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_tree_cases())
def test_tree_path_matches_the_dense_path(case):
    # Random rows, pair midpoints, circumcenters, bisector offsets, rows on
    # the sites and rows near 1e3, at two tie tolerances: the k-d tree path
    # classifies every row as the dense block does, in a block of one row
    # per query too.
    kset, rows = case
    tree = _assert_tree_matches_dense(rows, kset)
    with pytest.MonkeyPatch.context() as patch:
        _on_tree(patch, True)
        patch.setattr(potential_module, "TREE_QUERY_CANDIDATES", 1)
        small = batch_field(rows, kset)
    for a, b in zip(tree[:3], small[:3]):
        assert a.tobytes() == b.tobytes()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_tree_cases())
def test_classify_matches_the_row_major_reference_property(case):
    # The tree-path test's rows (midpoints, circumcenters, bisector offsets,
    # sites, rows near 1e3, two tie tolerances) on the dense block.
    kset, rows = case
    _assert_classify_matches_reference(rows, kset)


def test_tree_path_doubles_k_at_a_sixteen_way_tie():
    # The centre of the 4-D unit cube is equidistant from its 16 corners:
    # the first 4 and then 8 candidates all tie, so k doubles twice, to all 16.
    corners = np.array(list(itertools.product([0.0, 1.0], repeat=4)))
    rows = np.vstack([np.full(4, 0.5), corners, [[0.5, 0.5, 0.5, 2.0]]])
    tree = _assert_tree_matches_dense(rows, PointSet(corners))
    cls, first = tree[3][0]
    assert cls == tuple(range(16)) and first.tolist() == [0]


def test_tree_path_margin_covers_the_rounding_of_d2():
    # Twelve sites on a circle of radius 0.05 around a centre near 1e3: the
    # rounding of |x|^2 + |p|^2 - 2 x.p (about 1e-10) exceeds the tie slack
    # (1e-9 * 0.0025), so rounding decides which sites tie with the centre.
    # The tree path must find every site its own d2 puts in the tie, as it
    # does with all sites as candidates; without the margin it stops short.
    ring = np.exp(2j * np.pi * np.arange(12) / 12)
    ring = 0.05 * np.stack([ring.real, ring.imag], axis=1)
    for c in range(40):
        centre = np.array([1000.0 + 0.37 * c, 1000.0 - 0.11 * c])
        kset = PointSet(centre + ring)
        out = []
        for k in (potential_module.TREE_K, 12):
            with pytest.MonkeyPatch.context() as patch:
                _on_tree(patch, True)
                patch.setattr(potential_module, "TREE_K", k)
                out.append(_classify(centre[None, :], kset))
        assert all(a.tobytes() == b.tobytes() for a, b in zip(*out))


def test_tree_path_on_the_lattice_verdict_probes(monkeypatch):
    # The 1,944-site lattice in R^4 takes the tree path at the default
    # threshold; its verdict probes classify as on the dense path.
    system = build_mag([[0.0], [0.2], [0.45], [0.7]], 1, 4, 1)
    assert system.kset.n >= potential_module.TREE_MIN_SITES
    seen, kernel = [], potential_module.batch_field
    monkeypatch.setattr(potential_module, "batch_field",
                        lambda rows, kset: seen.append(rows) or kernel(rows, kset))
    assert interior_balance_verdict(system, probe_count=2000, seed=0) == (True, None, 70)
    monkeypatch.undo()
    _assert_tree_matches_dense(seen[0], system.kset)


def test_tree_of_each_point_set_is_its_own(monkeypatch):
    # Point sets of alternating dimension are built and dropped; each is
    # classified with the tree built from its own sites.
    _on_tree(monkeypatch, True)
    rng = np.random.default_rng(5)
    for i in range(12):
        d = 1 + i % 3
        sites = np.unique(rng.integers(-8, 9, size=(12, d)), axis=0) / 4.0
        rows = rng.uniform(-3.0, 3.0, size=(40, d))
        kset = PointSet(sites)
        nearest = np.argmin(((rows[:, None, :] - sites[None]) ** 2).sum(axis=2), axis=1)
        assert np.array_equal(batch_field(rows, kset)[0], sites[nearest])
        del kset
        gc.collect()


def test_tree_path_memory_is_below_one_dense_block():
    # 200,000 rows x 2,048 sites on the tree path: each query holds a bounded
    # number of row-candidates, below the dense path's one-block bound.
    rng = np.random.default_rng(0)
    kset = PointSet(rng.random((2048, 3)) * 8.0 - 4.0)
    assert kset.n >= potential_module.TREE_MIN_SITES
    rows = rng.uniform(-6.0, 6.0, size=(200_000, 3))
    assert _traced_peak(rows, kset) < 4 * 8 * potential_module.KERNEL_CHUNK_ROW_SITES


def test_slope_sup_examples(line_k):
    assert slope_sup_oracle([0.0], line_k, 400, 1) == pytest.approx(0.0, abs=1e-9)
    assert slope_sup_oracle([-0.3], line_k, 400, 1) == pytest.approx(0.7, abs=1e-3)
    assert slope_sup_oracle([1.0], line_k, 400, 1) == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(GeometryError):
        slope_sup_oracle([0.0], line_k, 50, 1)


def test_slope_sup_band(grid3_k):
    rng = np.random.default_rng(12)
    count = 0
    while count < 60:
        x = rng.random(2) * 4 - 1
        info = extended_gradient(x, grid3_k)
        if len(info.opt) > 1:
            continue
        d2 = np.sort(np.sum((grid3_k.points - x) ** 2, axis=1))
        if d2[1] - d2[0] < 0.05:
            continue
        count += 1
        est = slope_sup_oracle(x, grid3_k, 150, count)
        grad = float(np.sqrt(info.slope_sq))
        assert est <= grad + 1e-6
        assert est >= grad - 5e-3


def test_zone_table_line(line_k):
    zt = zone_table(line_k, ([-3.0], [3.0]), probe_count=400, seed=0)
    assert zt.balanced
    assert zt.beta == pytest.approx(1.0, abs=1e-9)
    assert sorted(zt.etas.ravel().tolist()) == pytest.approx([-1.0, 0.0, 1.0])
    assert zt.witnessed_cells == 3


def test_zone_table_triangle_witness(triangle_k):
    zt = zone_table(triangle_k, ([-2.0, -2.0], [2.0, 2.0]), probe_count=1500, seed=0)
    assert not zt.balanced
    assert set(zt.unbalanced_witness) == {(0, 1, 2), (0, 2)}
    # both witness classes map to the same zone value (0, 0)
    z = zt.cell_to_zone[(0, 1, 2)]
    assert zt.cell_to_zone[(0, 2)] == z
    assert np.allclose(zt.etas[z], [0.0, 0.0], atol=1e-9)


def test_zone_table_grid3(grid3_k):
    zt = zone_table(grid3_k, ([-1.0, -1.0], [3.0, 3.0]), probe_count=2000, seed=0)
    assert zt.balanced
    assert zt.beta == pytest.approx(0.25, abs=1e-9)


def test_zone_table_box_must_contain_sites(line_k):
    with pytest.raises(GeometryError):
        zone_table(line_k, ([-0.5], [0.5]), probe_count=10, seed=0)


def test_zone_table_pair_budget_is_deterministic(grid3_k, monkeypatch):
    monkeypatch.setattr(potential_module, "MAX_PAIRS", 10)
    z1 = zone_table(grid3_k, ([-1.0, -1.0], [3.0, 3.0]), probe_count=500, seed=2)
    z2 = zone_table(grid3_k, ([-1.0, -1.0], [3.0, 3.0]), probe_count=500, seed=2)
    assert z1.coverage["midpoints"] == 10
    assert z1.cell_to_zone == z2.cell_to_zone
    assert z1.balanced == z2.balanced


def test_same_zone_is_the_dedup_radius():
    # One zone: within ETA_DEDUP_TOL in the Euclidean norm, not per coordinate.
    eta = np.array([0.5, -1.0])
    assert same_zone(eta, eta + [0.6e-7, 0.7e-7])
    assert not same_zone(eta, eta + [0.6e-7, 0.9e-7])


def test_in_p_eta_examples(line_k):
    assert in_p_eta([0.0], [0.0], line_k)
    assert not in_p_eta([0.5], [0.0], line_k)


def test_q_subset_p(line_k, triangle_k):
    rng = np.random.default_rng(3)
    for kset in (line_k, triangle_k):
        for _ in range(60):
            x = rng.normal(size=kset.dim) * 1.5
            info = extended_gradient(x, kset)
            assert in_p_eta(x, info.eta, kset)


def test_separation_inequality(triangle_k, grid3_k):
    # distinct zone values eta != eta-bar with x in Q_eta and eta-bar in dg(x);
    # such x live on boundary cells, so probe the witnessed class points.
    for kset, box in ((triangle_k, ([-2.0, -2.0], [2.0, 2.0])),
                      (grid3_k, ([-1.0, -1.0], [3.0, 3.0]))):
        zt = zone_table(kset, box, probe_count=1500, seed=1)
        beta = zt.beta
        checked = 0
        for x in zt.class_witness.values():
            info = extended_gradient(x, kset)
            for eta_bar in zt.etas:
                if np.linalg.norm(eta_bar - info.eta) <= 1e-7:
                    continue
                if in_p_eta(x, eta_bar, kset):
                    checked += 1
                    lhs = float(np.sum((eta_bar - x) ** 2))
                    rhs = float(np.sum((info.eta - x) ** 2)) + beta
                    assert lhs >= rhs - 1e-6
        assert checked > 0


def test_zone_constancy(grid3_k):
    rng = np.random.default_rng(10)
    by_class = {}
    for _ in range(400):
        x = rng.random(2) * 4 - 1
        info = extended_gradient(x, grid3_k)
        key = info.opt
        if key in by_class:
            assert np.linalg.norm(by_class[key] - info.eta) <= 1e-9
        else:
            by_class[key] = info.eta
    assert len(by_class) >= 9


def test_lower_semicontinuity_at_bisector(line_k, triangle_k):
    # one-sided slope limits dominate the boundary value
    cases = [
        (line_k, np.array([0.0]), np.array([1.0])),
        (triangle_k, np.array([0.0, -0.5]), np.array([1.0, 0.0])),
    ]
    for kset, xb, direction in cases:
        boundary = float(np.sqrt(extended_gradient(xb, kset).slope_sq))
        for side in (1.0, -1.0):
            vals = []
            for eps in (1e-3, 1e-4, 1e-5):
                x = xb + side * eps * direction
                vals.append(float(np.sqrt(extended_gradient(x, kset).slope_sq)))
            assert min(vals) >= boundary - 1e-6


def test_oracle_consistency_band(line_k):
    rng = np.random.default_rng(20)
    for i in range(40):
        x = np.array([rng.uniform(-2.5, 2.5)])
        if abs(x[0]) < 0.01:
            continue
        info = extended_gradient(x, line_k)
        est = slope_sup_oracle(x, line_k, 120, i)
        grad = float(np.sqrt(info.slope_sq))
        assert grad - 5e-3 <= est <= grad + 1e-6
