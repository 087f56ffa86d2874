import numpy as np
import pytest

from voract import mag as mag_module
from voract import (
    GeometryError,
    interior_balance_verdict,
    MagError,
    MagSystem,
    Path,
    PointSet,
    Shape,
    SolverConfig,
    build_mag,
    default_window,
    evaluate_action,
    extended_gradient,
    particle_paths,
    stability_run,
    window_certificate,
)
from voract.potential import MAX_PROBE_COORDS


def test_build_counts_two_particles():
    sys = build_mag([[0.0], [0.5]], n=1, m=2, window=1)
    assert sys.kset.n == 2 * 3**2 == 18
    assert sys.dim == 2
    labels = set(sys.labels)
    assert len(labels) == 18


def test_build_single_particle_lattice():
    sys = build_mag([[0.0]], n=1, m=1, window=1)
    assert sorted(sys.kset.points.ravel().tolist()) == [-1.0, 0.0, 1.0]


def test_build_validation():
    with pytest.raises(MagError):
        build_mag([[0.0], [0.0]], n=1, m=2, window=1)  # duplicate base points
    with pytest.raises(MagError):
        build_mag([[0.0], [1.0 - 1e-12]], n=1, m=2, window=1)  # equal on the torus
    with pytest.raises(MagError):
        build_mag([[1.2], [0.3]], n=1, m=2, window=1)  # outside [0,1)
    with pytest.raises(MagError):
        build_mag(np.random.default_rng(0).random((6, 1)), n=1, m=6, window=1)
    with pytest.raises(MagError):
        build_mag([[0.0, 0.0], [0.5, 0.5]], n=2, m=2, window=13)  # site budget


@pytest.mark.parametrize("n,m,window", [
    (1, 2, True), (1, 2, 1.5), (1.0, 2, 1), (1, 2.0, 1), (True, 2, 1), (1, "2", 1),
], ids=["bool-window", "float-window", "float-n", "float-m", "bool-n", "str-m"])
def test_build_rejects_non_integral_sizes(n, m, window):
    with pytest.raises(MagError, match="must be an integer"):
        build_mag([[0.0], [0.5]], n=n, m=m, window=window)


@pytest.mark.parametrize("base,endpoint", [
    ([[0.0], [0.5]], [1e400, 0.3]),
    ([[0.0], [0.5]], [np.nan, 0.3]),
    ([[np.nan], [0.5]], [0.2, 0.3]),
], ids=["inf-endpoint", "nan-endpoint", "nan-base"])
def test_default_window_rejects_non_finite_coordinates(base, endpoint):
    with pytest.raises(MagError, match="must be finite"):
        default_window(base, 1, 2, endpoint, [0.3, 0.2])


def test_default_window_policy():
    w = default_window([[0.0], [0.5]], 1, 2, [0.2, 0.3], [0.3, 0.2])
    assert w == 2
    w2 = default_window([[0.0], [0.5]], 1, 2, [1.7, 0.3])
    assert w2 == 3


def test_particle_paths_split_and_torus():
    sys = build_mag([[0.0], [0.5]], n=1, m=2, window=1)
    nodes = np.tile([0.1, 0.6], (9, 1))
    nodes[-1] = [1.3, -0.2]
    lifted, torus = particle_paths(sys, Path(1.0, nodes))
    assert np.allclose(lifted[0][0], [0.1]) and np.allclose(lifted[1][0], [0.6])
    assert torus[0][-1, 0] == pytest.approx(0.3)
    assert torus[1][-1, 0] == pytest.approx(0.8)


def test_collision_state_has_zero_gradient():
    sys = build_mag([[0.0], [0.5]], n=1, m=2, window=1)
    info = extended_gradient([0.25, 0.25], sys.kset)
    assert np.allclose(info.grad, 0.0, atol=1e-12)
    assert len(info.opt) >= 2


def test_permutation_symmetry_of_action():
    sys = build_mag([[0.0], [0.5]], n=1, m=2, window=1)
    shape = Shape.identity()
    rng = np.random.default_rng(3)
    nodes = rng.random((17, 2)) * 0.5
    swapped = nodes[:, ::-1].copy()
    a1 = evaluate_action(Path(1.0, nodes), sys.kset, shape).total
    a2 = evaluate_action(Path(1.0, swapped), sys.kset, shape).total
    assert a1 == pytest.approx(a2, rel=1e-12)


def test_window_certificate():
    sys = build_mag([[0.0], [0.5]], n=1, m=2, window=1)
    ok = Path(1.0, np.tile([0.0, 0.5], (9, 1)))
    assert window_certificate(sys, ok)
    escaping = Path(1.0, np.stack([np.linspace(0.0, 1.6, 9),
                                   np.linspace(0.5, 2.1, 9)], axis=1))
    assert not window_certificate(sys, escaping)


def test_union_of_permuted_lattices_balanced_on_interior():
    # symmetric base points make the permutation union an isometric copy of
    # a cubic lattice, which is balanced; the verdict excludes cells touching
    # the truncation shell
    sys = build_mag([[0.0, 0.0], [0.5, 0.5]], n=2, m=2, window=2)
    balanced, witness, cells = interior_balance_verdict(sys, probe_count=1200, seed=0)
    assert balanced, f"witness: {witness}"
    assert witness is None
    assert cells == 473


def test_lattice_verdict_of_four_particles_on_the_circle():
    # 1944 sites in R^4, 24 of them inert: the lattice of the benchmark.
    sys = build_mag([[0.0], [0.2], [0.45], [0.7]], 1, 4, 1)
    assert interior_balance_verdict(sys, probe_count=1200, seed=0) == (True, None, 70)


@pytest.mark.parametrize("probe_count, seed", [(-5, 0), (10, -1)])
def test_verdict_rejects_a_negative_probe_count_or_seed(probe_count, seed):
    sys = build_mag([[0.0, 0.0], [0.5, 0.5]], n=2, m=2, window=2)
    with pytest.raises(GeometryError, match="must be nonnegative"):
        interior_balance_verdict(sys, probe_count=probe_count, seed=seed)


def test_verdict_rejects_more_probe_coordinates_than_the_budget(monkeypatch):
    # 2.5 million probes in R^4 are 10^7 coordinates, 10 more are over: the
    # count is refused before the generator draws anything.
    sys = build_mag([[0.0, 0.0], [0.5, 0.5]], n=2, m=2, window=2)
    monkeypatch.setattr(np.random, "default_rng", lambda seed: pytest.fail("drew probes"))
    with pytest.raises(GeometryError, match="exceed the budget"):
        interior_balance_verdict(sys, probe_count=MAX_PROBE_COORDS // 4 + 10, seed=0)


def test_verdict_names_the_first_sorted_pair_sharing_a_zone():
    # The triangle's full class (0, 1, 2) and its edge class (0, 2) both
    # project to the origin; with every site inert the verdict is unbalanced.
    sys = MagSystem(n=2, m=1, base_points=[[0.0, 0.0]], window=1,
                    kset=PointSet([[0.3, 0.0], [0.0, 0.3], [-0.3, 0.0]]),
                    labels=(((0,), (0, 0)),) * 3)
    assert interior_balance_verdict(sys, probe_count=1200, seed=0) == (
        False, ((0, 1, 2), (0, 2)), 7)


def test_stability_run_constant_sequence(line_k):
    shape = Shape.identity()
    cfg = SolverConfig(M=64, refinements=1, starts=2, seed=0)
    res = stability_run([line_k, line_k], [([-0.2], [0.2])] * 2, 1.0, shape, cfg)
    assert res[0].breakdown.total == pytest.approx(res[1].breakdown.total, abs=1e-12)


def test_stability_run_validation(line_k):
    shape = Shape.identity()
    cfg = SolverConfig(M=64, refinements=1, starts=2, seed=0)
    with pytest.raises(MagError):
        stability_run([line_k], [], 1.0, shape, cfg)
    k2 = PointSet([[0.0, 0.0]])
    with pytest.raises(MagError):
        stability_run([line_k, k2], [([-0.2], [0.2])] * 2, 1.0, shape, cfg)


def test_stability_run_checks_every_entry_before_solving(line_k, monkeypatch):
    monkeypatch.setattr(mag_module, "minimize", lambda *args: pytest.fail("solved"))
    cfg = SolverConfig(M=64, refinements=1, starts=2, seed=0)
    with pytest.raises(GeometryError):  # the second start is not a 1-vector
        stability_run([line_k, line_k], [([-0.2], [0.2]), ([-0.2, 0.0], [0.2])], 1.0,
                      Shape.identity(), cfg)
