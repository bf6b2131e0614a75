"""Newton continuation of the m-fold branches off the annulus.

Most of this runs at the reference point lam = 1, b = 0.5, where the
mode m = 5 carries a simple real eigenvalue pair: the plus branch pins the
outer interface (kernel dominated by the outer component) and the minus
branch pins the inner one.  A coarse grid (P = 128) and short truncation
(K = 8) keep the suite fast.  The thin annulus b = 0.9 at m = 14 to 24
needs many more lattice columns, and at m = 24 more than P = 512 holds,
which is the trigger for the saturation test.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
import qgsw_vstates.continuation as continuation
import qgsw_vstates.spectrum as spectrum
from qgsw_vstates.continuation import (
    RESIDUAL_TOL,
    BranchPoint,
    DegenerateJacobian,
    NonConvergence,
    lattice_boundaries,
    newton_solve,
    omega_intercept,
    trace_branch,
    verify_vstate,
)
from qgsw_vstates.contour import (
    FourierBoundary,
    annulus_boundary,
    fold_grid,
    make_grid,
)

LAM, B, M = 1.0, 0.5, 5


@pytest.fixture(scope="module")
def grid():
    return make_grid(128)


@pytest.fixture(scope="module")
def pair():
    return spectrum.ModeCell(LAM, B).spectrum(M)[1]


@pytest.fixture(scope="module")
def plus_march(grid):
    return trace_branch(LAM, B, M, "+", 2e-3, 4, trunc=8, grid=grid)


@pytest.fixture(scope="module")
def minus_point(grid):
    return newton_solve(LAM, B, M, "-", 1e-3, trunc=8, grid=grid)


def test_zero_amplitude_returns_annulus(grid, pair):
    for sign, omega_star, side in (
        ("+", pair.omega_plus, "outer"),
        ("-", pair.omega_minus, "inner"),
    ):
        point = newton_solve(LAM, B, M, sign, 0.0, trunc=8, grid=grid)
        assert point.omega == omega_star  # guess accepted untouched
        assert point.residual <= 1e-11
        assert point.pinned == side
        assert all(a == 0.0 for a in point.f1.coefficients)
        assert all(a == 0.0 for a in point.f2.coefficients)


def test_small_amplitude_stays_near_eigenvalue(grid, pair):
    point = newton_solve(LAM, B, M, "+", 1e-4, trunc=8, grid=grid)
    assert point.residual <= RESIDUAL_TOL
    assert abs(point.omega - pair.omega_plus) < 1e-2
    # much tighter in practice: the branch leaves the annulus quadratically
    assert abs(point.omega - pair.omega_plus) < 1e-6


def test_pinned_coefficient_and_lattice_support(plus_march):
    point = plus_march.points[-1]
    assert point.pinned == "outer"
    assert point.f1.coefficients[M - 1] == point.s  # pinned exactly, no drift
    for boundary in (point.f1, point.f2):
        for idx, coeff in enumerate(boundary.coefficients):
            if (idx + 1) % M != 0:
                assert coeff == 0.0


def test_direction_matches_kernel_vector(plus_march, minus_point):
    cell = spectrum.ModeCell(LAM, B)
    v1, v2 = cell.root(M, "+")[1]
    first = plus_march.points[0]
    ratio = first.f2.coefficients[M - 1] / first.f1.coefficients[M - 1]
    assert ratio == pytest.approx(v2 / v1, rel=0.05)

    w1, w2 = cell.root(M, "-")[1]
    ratio = minus_point.f1.coefficients[M - 1] / minus_point.f2.coefficients[M - 1]
    assert ratio == pytest.approx(w1 / w2, rel=0.05)


def test_minus_branch_rotates_slower(plus_march, minus_point):
    # same amplitude s = 1e-3 on both branches
    assert minus_point.omega < plus_march.points[1].omega


def test_trace_completes_with_converged_points(plus_march):
    assert plus_march.completed
    assert plus_march.termination_reason == "completed"
    assert len(plus_march.points) == 4
    amplitudes = [p.s for p in plus_march.points]
    assert amplitudes == sorted(amplitudes)
    assert amplitudes[-1] == pytest.approx(2e-3, rel=1e-15)
    for point in plus_march.points:
        assert point.residual <= RESIDUAL_TOL
        assert math.isfinite(point.omega)


def test_branch_emanates_from_eigenvalue(plus_march, pair):
    # omega(s) -> omega_plus as s -> 0; at s = 5e-4 the gap is O(s^2)
    assert abs(plus_march.points[0].omega - pair.omega_plus) < 1e-5


def test_warm_start_agrees_with_cold_solve(grid, plus_march):
    cold = newton_solve(LAM, B, M, "+", 1e-3, trunc=8, grid=grid)
    warm = plus_march.points[1]
    assert warm.s == cold.s
    assert abs(warm.omega - cold.omega) < 1e-9
    for a, c in zip(warm.f2.coefficients, cold.f2.coefficients):
        assert abs(a - c) < 1e-9


def _close(point, reference, tol):
    assert abs(point.omega - reference.omega) <= tol
    for boundary, ref in ((point.f1, reference.f1), (point.f2, reference.f2)):
        assert np.max(np.abs(np.subtract(boundary.coefficients,
                                          ref.coefficients))) <= tol


def _count_residuals(monkeypatch):
    calls = []
    g_functional = continuation.g_functional

    def counted(*args, **kwargs):
        calls.append(None)
        return g_functional(*args, **kwargs)

    monkeypatch.setattr(continuation, "g_functional", counted)
    return calls


@pytest.mark.parametrize("sign", ["+", "-"])
def test_trace_starts_each_point_from_the_secant_line(grid, sign, monkeypatch):
    # the secant runs in s^2 through the last two points: Omega(s) - Omega*
    # ~ c s^2 near the annulus, which a line in s misses by a fraction
    # 2/(2k-1) of the step from point k-1 (29-67% here); the line in s^2
    # misses it by the s^4 term alone.  The leading unpinned coefficient is
    # odd in s, so its ratio to s, extrapolated the same way, all but lands
    guesses = []
    solve = continuation.newton_solve

    def spy(*args, initial_guess=None, **kwargs):
        guesses.append(initial_guess)
        return solve(*args, initial_guess=initial_guess, **kwargs)

    monkeypatch.setattr(continuation, "newton_solve", spy)
    points = trace_branch(LAM, B, M, sign, 2e-3, 4, trunc=8, grid=grid).points
    assert guesses[0] is None
    side = 1 if points[0].pinned == "outer" else 0

    def lead(point):
        return (point.f1, point.f2)[side].coefficients[M - 1]

    for k in range(1, 4):
        guess, point, previous = guesses[k], points[k], points[k - 1]
        assert guess.s == point.s
        assert abs(guess.omega - point.omega) <= (
            0.05 * abs(previous.omega - point.omega))
        assert abs(lead(guess) - lead(point)) <= (
            1e-3 * abs(lead(previous) - lead(point)))


def test_parity_guess_outside_the_ball_falls_back_to_the_last_point(
        plus_march):
    # the guess pins a_4 = 0.1, weight m*|a_4| = 0.5: outside the ball
    older, newer = plus_march.points[:2]
    direction = continuation._kernel_direction(
        spectrum.ModeCell(LAM, B), M, "+")[2]
    guess = continuation._parity_guess
    assert guess(M, 0.1, older, newer, direction) is newer
    assert guess(M, 2.5e-3, older, newer, direction) is not newer


# a branch-like family: Omega = Omega* + delta s^2; the lattice coefficient
# of k = 1 is the kernel direction (1 at the pin) times s plus beta s^3 off
# the pin, k = 2 is gamma s^2, k = 3 is beta s^3, and those above are zero
_DIRECTION = {"outer": np.array([1.0, -0.37]), "inner": np.array([0.21, 1.0])}


def _parity_point(s, pinned, trunc):
    lattice = np.zeros((2, trunc))
    off_pin = np.array([0.0, 1.0] if pinned == "outer" else [1.0, 0.0])
    lattice[:, 0] = _DIRECTION[pinned] * s + off_pin * 0.8 * s**3
    lattice[:, 1] = np.array([-2.5, 1.5]) * s**2
    lattice[:, 2] = np.array([0.6, -0.9]) * s**3
    return BranchPoint(
        s, 0.2 + 0.7 * s**2, *lattice_boundaries(M, B, lattice),
        residual=0.0, m=M, pinned=pinned,
    )


@st.composite
def _lattices(draw):
    """(m, b, a 2 x K lattice) with both boundaries inside the ball guard:
    each |coefficient| times its m(k+1) sums to at most b/10."""
    m, trunc = draw(st.integers(1, 40)), draw(st.integers(1, 8))
    b = draw(st.floats(0.05, 0.95))
    bound = 0.2 * b / (m * trunc * (trunc + 1))
    values = draw(st.lists(st.floats(-bound, bound), min_size=2 * trunc,
                           max_size=2 * trunc))
    return m, b, np.array(values).reshape(2, trunc)


@settings(max_examples=50, deadline=None)
@given(_lattices(), st.data())
def test_branch_point_reads_back_the_lattice_it_was_written_from(case, data):
    m, b, lattice = case
    trunc = lattice.shape[1]
    count = data.draw(st.integers(0, 2 * trunc))
    f1, f2 = lattice_boundaries(m, b, lattice)
    assert (f1.scale, f2.scale) == (1.0, b)
    assert len(f1.coefficients) == len(f2.coefficients) == m * trunc
    point = BranchPoint(0.0, 0.0, f1, f2, residual=0.0, m=m, pinned="outer")
    kept = min(count, trunc)
    want = np.zeros((2, count))
    want[:, :kept] = lattice[:, :kept]
    # bit for bit: cut at count, zero-padded past K, -0.0 kept
    assert point.lattice(count).tobytes() == want.tobytes()


@settings(max_examples=50, deadline=None)
@given(_lattices(), st.sampled_from(["outer", "inner"]), st.floats(-1.0, 1.0),
       st.floats(-0.05, 0.05))
def test_pack_and_lattice_are_inverses(case, pinned, omega, s):
    m, _, lattice = case
    trunc = lattice.shape[1]
    # pack and lattice read neither the cell nor the grid
    system = continuation._ProjectedSystem(None, m, trunc, None, pinned, s)
    u = system.pack(lattice, omega)
    assert u.size == 2 * trunc and u[-1] == omega
    want = lattice.copy()
    want[divmod(system.pin, trunc)] = s
    assert system.lattice(u).tobytes() == want.tobytes()


def _annulus_point(omega):
    return BranchPoint(s=0.0, omega=omega, f1=annulus_boundary(1.0),
                       f2=annulus_boundary(B), residual=0.0, m=M,
                       pinned=None)


@pytest.mark.parametrize("pinned", ["outer", "inner"])
@pytest.mark.parametrize("older_trunc, newer_trunc", [(4, 4), (4, 8), (8, 4)])
def test_parity_guess_reproduces_an_even_and_odd_branch(
        pinned, older_trunc, newer_trunc):
    # Omega, the even coefficients and the odd ones over s are linear in
    # s^2 on this family, so the guess lands on it to rounding, from the
    # annulus anchor and from two points whose truncations differ
    pin = 0 if pinned == "outer" else 1
    for older, newer, s in (
        (_annulus_point(0.2), _parity_point(1e-3, pinned, newer_trunc), 3e-3),
        (_parity_point(1e-3, pinned, older_trunc),
         _parity_point(2e-3, pinned, newer_trunc), 3.5e-3),
    ):
        guess = continuation._parity_guess(M, s, older, newer,
                                           _DIRECTION[pinned])
        want = _parity_point(s, pinned, 8)
        assert guess.s == s
        assert guess.omega == pytest.approx(want.omega, rel=1e-15)
        got = guess.lattice(8)
        assert got[pin, 0] == s  # the pinned coefficient exactly
        assert np.max(np.abs(got - want.lattice(8))) <= 1e-18


def test_parity_guess_is_finite_at_tiny_amplitudes():
    # s^2 = 1e-400 underflows; the step in s^2 is taken in units of the
    # last one, so the guess is the kernel direction scaled to s
    direction = _DIRECTION["inner"]
    one, two = (_parity_point(k * 1e-200, "inner", 4) for k in (1, 2))
    for older, newer in ((_annulus_point(0.2), one), (one, two)):
        guess = continuation._parity_guess(M, 3e-200, older, newer, direction)
        assert guess.omega == 0.2
        values = guess.lattice(4)
        assert np.all(np.isfinite(values))
        assert values[:, 0] == pytest.approx(direction * 3e-200, rel=1e-14)


def test_zero_order_fallback_rescues_a_point():
    # the secant lines to s = 0.030 and 0.036 leave the ball guard; from the
    # point at 0.024 itself the solve reaches 0.030, and only 0.036 ends the
    # march at the guard (4 points without the fallback)
    result = trace_branch(3.0, 0.7, 11, "-", 0.036, 6, trunc=8,
                          grid=make_grid(440))
    assert [p.s for p in result.points] == pytest.approx(
        [0.006, 0.012, 0.018, 0.024, 0.030], rel=1e-12)
    assert "ball guard" in result.termination_reason


def test_inadmissible_mode_ends_the_trace_with_the_root_message(grid):
    result = trace_branch(LAM, B, 2, "+", 1e-3, 2, trunc=8, grid=grid)
    assert not result.completed and result.points == ()
    assert result.termination_reason.startswith(
        "ValueError: mode m=2 has no simple real pair")


def test_evaluations_count_every_residual_across_growth(grid, monkeypatch):
    # the truncation grows from K = 2; the count runs across every K of
    # the solve
    calls = _count_residuals(monkeypatch)
    point = newton_solve(LAM, B, M, "+", 1e-4, trunc=2, grid=grid)
    assert point.truncation == 3  # solved at K = 2, then K = 3
    assert point.evaluations == len(calls) == 3


@pytest.mark.parametrize("scale, wrong", [
    (0.0, "identity"),  # singular: over the condition cap, no step taken
    (10.0, "identity"),  # unrelated to the system
    (20.0, "jacobian"),  # the full step cuts the residual by only ~5%
])
def test_wrong_carried_jacobian_is_rebuilt(grid, plus_march, scale, wrong,
                                          monkeypatch):
    # a warm start at the next amplitude whose first matrix is wrong: the
    # matrix must be replaced at the starting iterate, which costs at most
    # one rejected trial and 2K = 16 columns before the first accepted step
    last = plus_march.points[-1]
    cold = newton_solve(LAM, B, M, "+", 2.5e-3, trunc=8, grid=grid)
    seed = continuation._ProjectedSystem.linearization

    def wrong_seed(system, u):
        base = np.eye(u.size) if wrong == "identity" else seed(system, u)
        return scale * base

    monkeypatch.setattr(continuation._ProjectedSystem, "linearization",
                        wrong_seed)
    warm = newton_solve(LAM, B, M, "+", 2.5e-3, initial_guess=last,
                        trunc=8, grid=grid)
    assert warm.residual <= RESIDUAL_TOL
    _close(warm, cold, 1e-9)
    assert warm.evaluations <= 20 and warm.builds == 1


def test_trace_stops_at_ball_guard(grid):
    # first step s = 0.05 pins the inner coefficient at weight m*s = 0.25,
    # exactly the injectivity bound for scale b = 0.5
    result = trace_branch(LAM, B, M, "-", 0.1, 2, trunc=8, grid=grid)
    assert not result.completed
    assert len(result.points) == 0
    assert result.termination_reason.startswith("ValueError")
    assert "ball guard" in result.termination_reason


def test_truncation_grows_to_a_converged_point(grid):
    # at K = 2 the predicted a_3 is 3.7e-12, above the 1e-12 bound, so the
    # solve grows to K = 3 from that prediction and must land on the point
    # a cold K = 3 solve finds, with the solved a_3 where the prediction
    # put it.  Against the converged K = 7 solve the lattice moves 4.6e-13;
    # Omega moves 2.0e-9, as its Jacobian column is O(m s) = 5e-4 here, so
    # the 1e-12 node residual the Newton stop leaves fixes it to ~2e-9
    grown = newton_solve(LAM, B, M, "+", 1e-4, trunc=2, grid=grid)
    cold = newton_solve(LAM, B, M, "+", 1e-4, trunc=3, grid=grid)
    assert grown.truncation == 3
    assert grown.residual <= RESIDUAL_TOL
    assert abs(grown.omega - cold.omega) <= 1e-12
    _close(grown, cold, 1e-10)
    assert grown.lattice(3)[0, 2] == pytest.approx(3.74e-12, rel=1e-3)
    converged, omega = oracles.converged_lattice(LAM, B, grown, 7, grid)
    assert abs(grown.omega - omega) <= 5e-9
    assert np.max(np.abs(grown.lattice(7) - converged)) <= 1e-12


def test_trace_partial_on_truncation_saturation():
    # at b = 0.9, m = 24 the plus branch needs K = 10 on its fourth point,
    # whose certificate m(K+1) = 264 would reach P/2 = 256: the march must
    # return its converged prefix and say why it stopped
    b, m, grid = 0.9, 24, make_grid(512)
    result = trace_branch(LAM, b, m, "+", 5e-3, 8, trunc=4, grid=grid)
    assert not result.completed
    assert result.termination_reason.startswith(
        "NonConvergence: truncation saturated: omitted pair")
    assert result.termination_reason.endswith("at K=9")
    assert [p.truncation for p in result.points] == [6, 7, 8]
    for point in result.points:
        assert point.residual <= RESIDUAL_TOL


def _cold_system(lam, sign, s, trunc, grid):
    """(system, u, projected residual) at the cold guess of newton_solve."""
    cell = spectrum.ModeCell(lam, B)
    omega_star, pinned, direction = continuation._kernel_direction(
        cell, M, sign)
    system = continuation._ProjectedSystem(cell, M, trunc, grid, pinned, s)
    lattice = np.zeros((2, trunc))
    lattice[:, 0] = s * direction
    u = system.pack(lattice, omega_star)
    return system, u, system.residual(u)[0]


@pytest.mark.parametrize("lam", [1.0, 4.0])
@pytest.mark.parametrize("sign", ["+", "-"])
def test_seeded_jacobian_matches_forward_differences(grid, lam, sign):
    # the seed is the annulus linearization, the difference matrix is taken
    # at amplitude s: coefficient columns agree to O(s), Omega exactly
    system, u, projected = _cold_system(lam, sign, 1.25e-3, 8, grid)
    seeded = system.linearization(u)
    differenced = system.forward_difference(u, projected)
    scale = np.linalg.norm(differenced, axis=0)
    deviation = np.linalg.norm(seeded - differenced, axis=0) / scale
    assert np.max(deviation[:-1]) <= 2e-2
    assert deviation[-1] <= 1e-6
    assert system.evaluations == 1 + 16  # the seed spends no residual


@pytest.mark.parametrize("lam", [1.0, 4.0])
@pytest.mark.parametrize("sign", ["+", "-"])
def test_seed_omega_column_is_the_grid_projection(lam, sign, monkeypatch):
    # the closed-form Omega column of every seed, out to s = 0.03 at K = 16
    # and after K grows from 2, is the sine projection of the grid's
    # dG/dOmega at the lattice modes
    seeds = []
    seed = continuation._ProjectedSystem.linearization

    def spy(system, u):
        matrix = seed(system, u)
        seeds.append((system, u, matrix[:, -1]))
        return matrix

    monkeypatch.setattr(continuation._ProjectedSystem, "linearization", spy)
    far = trace_branch(lam, B, M, sign, 0.03, 3, trunc=16,
                       grid=fold_grid(M, 256))
    assert far.completed and far.points[-1].truncation == 16
    grown = newton_solve(lam, B, M, sign, 5e-3, trunc=2, grid=make_grid(128))
    # seeds at K = 16 (the march) and at K = 2 and the K it grows to
    # (before and after the first growth)
    assert grown.truncation > 2
    assert {2, grown.truncation, 16} <= {system.trunc
                                         for system, _, _ in seeds}
    for system, u, column in seeds:
        want = oracles.omega_column(system.lattice(u), M, B, system.grid)
        bound = 1e-14 * np.max(np.abs(column))
        assert np.max(np.abs(column - want)) <= bound, system.trunc


def test_one_linearization_builds_one_mode_cell(monkeypatch):
    # the seed builds no cell of its own, and its K blocks are bit for bit
    # the blocks n M_n of a fresh cell; a solve builds one cell,
    # truncation growth and its predicted pairs included, and an N-step
    # trace one, shared by its annulus anchor and every solve
    built = []
    init = spectrum.ModeCell.__init__

    def counted(cell, lam, b, **shared):
        built.append((lam, b))
        init(cell, lam, b, **shared)

    trunc = 16
    system = continuation._ProjectedSystem(
        spectrum.ModeCell(LAM, B), M, trunc, make_grid(256), "outer", 1e-3
    )
    u = system.pack(np.zeros((2, trunc)), 0.3)
    monkeypatch.setattr(spectrum.ModeCell, "__init__", counted)
    seeded = system.linearization(u)
    assert built == []
    point = newton_solve(1, 0.5, 5, "+", 1e-4, trunc=2, grid=make_grid(128))
    assert point.truncation == 3 and built == [(1, 0.5)]
    built.clear()
    trace = trace_branch(LAM, B, M, "+", 2e-3, 4, trunc=8, grid=make_grid(128))
    assert trace.completed and built == [(LAM, B)]
    monkeypatch.undo()
    cell = spectrum.ModeCell(LAM, B)
    for k in range(1, trunc):  # column 0, the pinned a_{m-1}, is dropped
        block = seeded[np.ix_((k, trunc + k), (k - 1, trunc + k - 1))]
        want = cell.block(M * (k + 1), 0.3)
        assert np.array_equal(block, want), k


def _difference_start(monkeypatch):
    # a singular seed is rejected at the condition cap and rebuilt by
    # forward differences, the start every solve had without the seed
    monkeypatch.setattr(continuation._ProjectedSystem, "linearization",
                        lambda self, u: np.zeros((u.size, u.size)))


@pytest.mark.parametrize("sign", ["+", "-"])
def test_cold_solve_from_the_seed(grid, sign, monkeypatch):
    seeded = newton_solve(LAM, B, M, sign, 1e-3, trunc=8, grid=grid)
    assert seeded.evaluations <= 6 and seeded.builds == 0
    _difference_start(monkeypatch)
    differenced = newton_solve(LAM, B, M, sign, 1e-3, trunc=8, grid=grid)
    assert differenced.builds == 1 and differenced.evaluations >= 17
    assert abs(seeded.omega - differenced.omega) <= 1e-8
    for boundary, reference in ((seeded.f1, differenced.f1),
                                (seeded.f2, differenced.f2)):
        assert np.max(np.abs(np.subtract(boundary.coefficients,
                                          reference.coefficients))) <= 1e-9


@pytest.mark.parametrize("sign", ["+", "-"])
def test_carried_jacobian_keeps_the_march_cheap(grid, sign, monkeypatch):
    # each point seeds one matrix at its guess and carries it, Broyden
    # updated, through its Newton steps: 8 (+) and 7 (-) residuals, where a
    # solver that rebuilds a central-difference Jacobian at every Newton
    # step spends 136 (+) and 169 (-)
    calls = _count_residuals(monkeypatch)
    result = trace_branch(LAM, B, M, sign, 2e-3, 4, trunc=8, grid=grid)
    assert result.completed
    assert len(calls) <= 10
    assert sum(p.evaluations for p in result.points) == len(calls)
    for point in result.points:
        assert point.residual <= RESIDUAL_TOL
        # K = 8 throughout, so the carried matrix stays 2K x 2K = 16 x 16
        assert len(point.f1.coefficients) // M == 8


@pytest.mark.parametrize("sign", ["+", "-"])
def test_seeded_march_builds_no_difference_jacobian(grid, sign, monkeypatch):
    # with a forward-difference start the same march spends 2K = 16 more
    # residuals per point
    calls = _count_residuals(monkeypatch)
    result = trace_branch(LAM, B, M, sign, 2e-3, 4, trunc=8, grid=grid)
    assert result.completed
    assert len(calls) <= 10
    assert sum(p.builds for p in result.points) == 0


@pytest.fixture(scope="module")
def reference_marches():
    """The 8-step march at P = 256, K = 16, both signs."""
    grid = make_grid(256)
    return grid, {sign: trace_branch(LAM, B, M, sign, 5e-3, 8, trunc=16,
                                     grid=grid) for sign in "+-"}


@pytest.mark.parametrize("sign, evaluations", [
    ("+", [3, 2, 2, 2, 2, 2, 2, 2]),
    ("-", [2, 1, 2, 2, 2, 2, 2, 2]),
])
def test_reference_march_spends_exactly_its_evaluations(
        reference_marches, sign, evaluations):
    # 17 (+) and 15 (-) residuals, the 32 the README quotes, and no
    # forward-difference Jacobian
    result = reference_marches[1][sign]
    assert result.completed
    assert [p.evaluations for p in result.points] == evaluations
    assert [p.builds for p in result.points] == [0] * 8


@pytest.mark.parametrize("sign", ["+", "-"])
def test_reference_march_agrees_with_cold_solves(reference_marches, sign):
    # every warm point stops where a cold solve at its amplitude does: a
    # predicted guess whose Newton matrix is not fresh would be accepted
    # short of it (Omega 8e-9 away on the P = 128 march)
    grid, marches = reference_marches
    for point in marches[sign].points:
        cold = newton_solve(LAM, B, M, sign, point.s, trunc=16, grid=grid)
        assert point.residual <= RESIDUAL_TOL
        _close(point, cold, 1e-9)


def test_failed_carried_jacobian_is_reseeded_before_a_build():
    # the benchmark's seed-1 amplitude, where the matrix carried from the
    # first minus point used to fail its 10% test: the seed at the second
    # point's own guess needs no forward-difference build (2K = 32 more)
    result = trace_branch(LAM, B, M, "-", 0.0027042084804697786, 2,
                          trunc=16, grid=make_grid(256))
    assert result.completed
    assert [p.evaluations for p in result.points] == [2, 2]
    assert [p.builds for p in result.points] == [0, 0]


def test_top_mode_at_half_the_grid_is_refused():
    # at K = 7 the certificate's mode m(K+1) = 64 is P/2, the Nyquist mode,
    # whose sine vanishes at every node; K = 6 puts it at 56
    with pytest.raises(ValueError, match="bandwidth"):
        newton_solve(LAM, B, 8, "+", 1e-4, trunc=7, grid=make_grid(128))
    point = newton_solve(LAM, B, 8, "+", 1e-4, trunc=6, grid=make_grid(128))
    assert point.truncation == 6


def test_trace_above_the_validated_lambda_names_the_bound(grid):
    # lambda = 10 has a simple pair at m = 5 but lies past the range the
    # quadrature can certify; the trace stops on that, not on the damping
    assert spectrum.ModeCell(10.0, B).spectrum(M)[0] > 0.0
    result = trace_branch(10.0, B, M, "+", 1e-4, 2, trunc=8, grid=grid)
    assert not result.completed and result.points == ()
    assert "lambda <= 8; got 10" in result.termination_reason


def test_growth_stops_at_the_top_truncation(monkeypatch):
    # b = 0.9, m = 24 on P = 312: K = 4 predicts a_5 = 7.5e-11 falling by
    # about 40 a column, which asks for K = 6, but K = 5 is the largest K
    # whose certificate's mode m(K+1) = 144 lies below P/2 = 156.  The
    # solve grows to K = 5, not past it, and saturates there
    pairs = _predicted_pairs(monkeypatch)
    with pytest.raises(NonConvergence,
                       match="truncation saturated: omitted pair 1.974e-12"
                             " at K=5"):
        newton_solve(LAM, 0.9, 24, "+", 6.25e-4, trunc=4, grid=make_grid(312))
    assert len(pairs) == 2
    point = newton_solve(LAM, 0.9, 24, "+", 6.25e-4, trunc=4,
                         grid=make_grid(528))
    assert point.truncation == 6 and len(pairs) == 4


def test_growth_saturates_below_half_the_grid():
    # K = 2 predicts a_3 = 3.7e-12; K = 3 would put its certificate's mode
    # m(K+1) = 20 at P/2
    with pytest.raises(NonConvergence,
                       match="truncation saturated: omitted pair 3.740e-12"):
        newton_solve(LAM, B, M, "+", 1e-4, trunc=2, grid=make_grid(40))


def test_warm_start_keeps_the_guess_truncation(grid):
    # the first two points grow K from 2 to 3 and 4; the third starts at
    # K = 4 and is certified at its predicted guess, one residual, where
    # growing again from K = 2 would cost two solves more
    result = trace_branch(LAM, B, M, "+", 2e-3, 4, trunc=2, grid=grid)
    assert result.completed
    assert [p.truncation for p in result.points] == [3, 4, 4, 5]
    assert result.points[2].evaluations == 1


def test_too_short_truncation_grows_instead_of_stalling(grid):
    # at K = 2 the node residual floor (~4.5e-10) sits above the tolerance,
    # so the lattice equations are solved first; the predicted a_3 is
    # ~5e-10 and K grows
    result = trace_branch(LAM, B, M, "+", 2e-3, 4, trunc=2, grid=grid)
    assert result.completed and len(result.points) == 4
    for point in result.points:
        assert point.residual <= RESIDUAL_TOL


def test_short_truncation_grows_once_its_lattice_is_solved(grid):
    # at K = 2 the node residual stays ~4.5e-10 while ||F|| falls: once
    # ||F|| is a thousandth of it the lattice equations count as solved, the
    # predicted a_3 (4.7e-10) grows K to 3, and no forward-difference
    # matrix is built.  This path is pinned exactly: K grows 2 -> 3 on the
    # first point, 3 -> 4 on the second and 4 -> 5 on the fourth, each
    # new column seeded with its predicted pair; the third guess is
    # certified as predicted, with no Newton step
    frozen = (
        (0.1645229939031155, -1.632980096886568e-05, -3.6077288114606833e-07),
        (0.16452250757121983, -3.266008664590269e-05, -1.4430915245842733e-06),
        (0.16452169701806038, -4.899134173928236e-05, -3.246955930314615e-06),
        (0.16452056214762814, -6.532405135931112e-05, -5.772326622271047e-06),
    )
    result = trace_branch(LAM, B, M, "+", 2e-3, 4, trunc=2, grid=grid)
    assert result.completed
    assert [p.truncation for p in result.points] == [3, 4, 4, 5]
    assert [p.evaluations for p in result.points] == [5, 2, 1, 3]
    assert [p.builds for p in result.points] == [0, 0, 0, 0]
    for point, (omega, b4, a9) in zip(result.points, frozen, strict=True):
        assert abs(point.omega - omega) <= 1e-12
        assert abs(point.f2.coefficients[4] - b4) <= 1e-12
        assert abs(point.f1.coefficients[9] - a9) <= 1e-12


@pytest.fixture
def perturbed_g(monkeypatch):
    """perturb(change): from then on the solver sees change(G_1, G_2) in
    place of G, e.g. a scaling at G's rounding level."""
    exact = continuation.g_functional

    def perturb(change):
        def changed(*args, **kwargs):
            return change(*exact(*args, **kwargs))

        monkeypatch.setattr(continuation, "g_functional", changed)

    return perturb


def _short_march_costs(grid):
    result = trace_branch(LAM, B, M, "+", 2e-3, 4, trunc=2, grid=grid)
    assert result.completed
    return ([p.evaluations for p in result.points],
            [p.builds for p in result.points])


@pytest.mark.parametrize("eps", [1e-14, -1e-14])
def test_rounding_of_g_does_not_move_the_solver_path(grid, perturbed_g, eps):
    # the growth of K must follow how well the point is resolved, not the
    # last bits of G
    exact = _short_march_costs(grid)
    perturbed_g(lambda g1, g2: (g1 * (1.0 + eps), g2 * (1.0 - eps)))
    assert _short_march_costs(grid) == exact


@pytest.mark.parametrize("sign", ["+", "-"])
def test_thin_annulus_point_grows_without_rebuilds(sign, monkeypatch):
    # b = 0.97, m = 46: K = 4 leaves the nodes up with the lattice solved.
    # The predicted a_5 over a_4 (-0.054 on the plus branch) says how the
    # columns go on, so K grows once, straight to the K whose predicted
    # pair meets the bound, each new column seeded as that ratio predicts,
    # with no forward-difference matrix; no column is a padded zero.  One
    # column at a time cost the plus branch 11 residuals
    pairs = _predicted_pairs(monkeypatch)
    point = newton_solve(LAM, 0.97, 46, sign, 6.25e-4, trunc=4,
                         grid=make_grid(1104))
    trunc, evaluations = {"+": (7, 7), "-": (6, 6)}[sign]
    assert point.truncation == trunc and len(pairs) == 2
    assert point.evaluations == evaluations and point.builds == 0
    assert point.residual <= RESIDUAL_TOL
    assert np.all(point.lattice(trunc)[0] != 0.0)


def test_nodes_the_lattice_cannot_see_end_at_the_floor(grid, perturbed_g):
    # a constant 1e-9 added to G_1 has no sine component: the lattice
    # equations are solved at the annulus, the predicted pair is zero, and
    # more harmonics cannot lower the nodes
    perturbed_g(lambda g1, g2: (g1 + 1e-9, g2))
    with pytest.raises(NonConvergence, match="node residual floor"):
        newton_solve(LAM, B, M, "+", 0.0, trunc=8, grid=grid)


def _predicted_pairs(monkeypatch):
    """The predicted first omitted pair of every decision from here on."""
    pairs = []
    omitted = continuation._ProjectedSystem.omitted

    def spy(system, omega, sine):
        pairs.append(omitted(system, omega, sine))
        return pairs[-1]

    monkeypatch.setattr(continuation._ProjectedSystem, "omitted", spy)
    return pairs


def test_predicted_pair_is_the_converged_first_omitted_pair(monkeypatch):
    # b = 0.9, m = 16, s = 6.25e-4: K = 4 leaves a_5 = 1.64e-11, above the
    # 1e-12 bound.  The pair predicted at the K = 4 exit iterate seeds
    # column 5, the K = 5 solve certifies with a predicted a_6 below the
    # bound, and the solved a_5 is the a_5 of the converged K = 8 solve
    # on the same grid and on twice it
    pairs = _predicted_pairs(monkeypatch)
    grid = make_grid(512)
    point = newton_solve(LAM, 0.9, 16, "+", 6.25e-4, trunc=4, grid=grid)
    assert point.truncation == 5 and len(pairs) == 2
    assert np.max(np.abs(pairs[1])) <= continuation._TAIL_TOL
    lattice = point.lattice(5)
    assert np.all(lattice != 0.0)  # every column solved, none padded
    assert abs(lattice[0, 4] - pairs[0][0]) <= 1e-15
    for node_count in (512, 1024):
        converged, _ = oracles.converged_lattice(LAM, 0.9, point, 8,
                                                 make_grid(node_count))
        assert converged[0, 4] == pytest.approx(1.6437e-11, rel=1e-4)
        assert abs(lattice[0, 4] - converged[0, 4]) <= 1e-14


def test_tail_verdict_does_not_depend_on_the_iteration_path(monkeypatch):
    # b = 0.9, m = 16, K = 8 at s = 2e-3: the last lattice coefficient is
    # 1.1e-12, and the solver certifies on the predicted a_9, about 6e-14.
    # The seed as given and the seed with its Omega column sign-flipped
    # reach the tolerance at different iterates; both certify at K = 8,
    # with predicted pairs that agree within the noise of the residual
    grid = make_grid(512)
    pairs = _predicted_pairs(monkeypatch)

    def solve():
        point = newton_solve(LAM, 0.9, 16, "+", 2e-3, trunc=8, grid=grid)
        assert point.truncation == 8
        return pairs[-1]

    plain = solve()
    seed = continuation._ProjectedSystem.linearization

    def flipped(system, u):
        matrix = seed(system, u)
        matrix[:, -1] *= -1.0
        return matrix

    monkeypatch.setattr(continuation._ProjectedSystem, "linearization", flipped)
    other = solve()
    assert len(pairs) == 2
    assert np.max(np.abs(plain)) <= continuation._TAIL_TOL
    assert np.max(np.abs(other - plain)) <= 1e-13


def test_thin_annulus_marches_agree_with_converged_solves():
    # b = 0.9, m = 14 and 16, plus branch from K = 4 on the CLI's grid:
    # both marches complete, K grows with s, every point passes the
    # doubled-grid check and lies within 5e-11 (measured 3.5e-11, the
    # Newton stop at RESIDUAL_TOL) of the converged K+4 solve on twice
    # the grid
    for m in (14, 16):
        grid = fold_grid(m, 512)
        fine = fold_grid(m, 1024)
        result = trace_branch(LAM, 0.9, m, "+", 5e-3, 8, trunc=4, grid=grid)
        assert result.completed, m
        truncations = [p.truncation for p in result.points]
        assert truncations == sorted(truncations) and truncations[0] == 5
        for point in result.points:
            count = point.truncation + 4
            assert point.residual <= RESIDUAL_TOL
            assert verify_vstate(point, LAM, 0.9, grid=grid).residual <= 1e-9
            converged, omega = oracles.converged_lattice(LAM, 0.9, point,
                                                         count, fine)
            assert abs(point.omega - omega) <= 5e-11, (m, point.s)
            assert np.max(np.abs(point.lattice(count) - converged)) <= 5e-11


def test_verify_annulus_point(grid, pair):
    point = newton_solve(LAM, B, M, "+", 0.0, trunc=8, grid=grid)
    report = verify_vstate(point, LAM, B, grid=grid)
    assert report.residual < 1e-11
    assert report.symmetry_defect == 0.0
    assert report.omega == pair.omega_plus


def test_verify_on_doubled_grid(grid, plus_march):
    report = verify_vstate(plus_march.points[-1], LAM, B, grid=grid)
    assert report.residual < 1e-9
    assert report.symmetry_defect == 0.0


def test_verify_flags_broken_point(grid, plus_march):
    point = plus_march.points[-1]
    coeffs = list(point.f1.coefficients)
    coeffs[M - 1] += 1e-3
    broken = dataclasses.replace(point, f1=FourierBoundary(1.0, tuple(coeffs)))
    report = verify_vstate(broken, LAM, B, grid=grid)
    assert report.residual > 1e-6
    assert report.symmetry_defect == 0.0  # still on the m-fold lattice


def test_verify_flags_symmetry_defect(grid, plus_march):
    point = plus_march.points[-1]
    coeffs = list(point.f1.coefficients)
    coeffs[6] += 1e-5  # power 7, off the 5-fold lattice
    off = dataclasses.replace(point, f1=FourierBoundary(1.0, tuple(coeffs)))
    report = verify_vstate(off, LAM, B, grid=grid)
    assert report.symmetry_defect == pytest.approx(1e-5, rel=1e-12)


def test_mode_without_real_pair_is_rejected(grid):
    # m = 2 sits below the spectral threshold at (1, 0.5)
    with pytest.raises(ValueError, match="no simple real pair"):
        newton_solve(LAM, B, 2, "+", 1e-4, trunc=8, grid=grid)


def test_validation_errors(grid):
    with pytest.raises(ValueError, match="order must be >= 1"):
        newton_solve(LAM, B, 0, "+", 0.0, trunc=8, grid=grid)
    with pytest.raises(ValueError, match="truncation"):
        newton_solve(LAM, B, M, "+", 0.0, trunc=1, grid=grid)
    with pytest.raises(ValueError, match="bandwidth"):
        newton_solve(LAM, B, M, "+", 0.0, trunc=16, grid=grid)
    with pytest.raises(ValueError, match="sign"):
        newton_solve(LAM, B, M, "x", 0.0, trunc=8, grid=grid)
    with pytest.raises(ValueError, match="steps"):
        trace_branch(LAM, B, M, "+", 1e-3, 0, trunc=8, grid=grid)


@pytest.mark.parametrize("s_max", [0.0, -2e-3, math.nan, math.inf])
@pytest.mark.parametrize("steps", [1, 2])
def test_trace_refuses_an_amplitude_that_is_not_positive_and_finite(
        grid, s_max, steps):
    # s_max = 0 put point 1 on the annulus, whose s = 0 the predictor of
    # point 2 divides by; a negative one marched the mirrored branch
    with pytest.raises(ValueError,
                       match="s-max must be positive and finite; got"):
        trace_branch(LAM, B, M, "+", s_max, steps, trunc=8, grid=grid)


def _singular_seed(monkeypatch, difference):
    # the zero seed is dropped at the condition cap, so the first step runs
    # on difference(forward-difference matrix), the fresh, damped matrix
    system = continuation._ProjectedSystem
    built = system.forward_difference
    monkeypatch.setattr(system, "linearization",
                        lambda self, u: np.zeros((u.size, u.size)))
    monkeypatch.setattr(system, "forward_difference",
                        lambda self, u, projected:
                        difference(built(self, u, projected)))


def test_iteration_cap_ends_the_solve(grid, monkeypatch):
    monkeypatch.setattr(continuation, "_MAX_ITERATIONS", 0)
    with pytest.raises(NonConvergence, match="iteration cap reached"):
        newton_solve(LAM, B, M, "+", 1e-3, trunc=8, grid=grid)
    result = trace_branch(LAM, B, M, "+", 1e-3, 2, trunc=8, grid=grid)
    assert not result.completed and result.points == ()
    assert result.termination_reason.startswith(
        "NonConvergence: iteration cap reached at s=0.0005, m=5 (residual")


def test_singular_difference_matrix_is_degenerate(grid, monkeypatch):
    _singular_seed(monkeypatch, np.zeros_like)
    with pytest.raises(DegenerateJacobian, match="condition estimate inf"):
        newton_solve(LAM, B, M, "+", 1e-3, trunc=8, grid=grid)


def test_ascent_direction_exhausts_the_damping(grid, monkeypatch):
    _singular_seed(monkeypatch, np.negative)
    with pytest.raises(NonConvergence, match="damping exhausted"):
        newton_solve(LAM, B, M, "+", 1e-3, trunc=8, grid=grid)


def test_trials_outside_the_ball_guard_are_halved(grid, monkeypatch):
    # a matrix 1e6 too small makes steps 1e6 too long: the first halvings
    # leave the ball guard, which counts as a failed trial, not as an error
    _singular_seed(monkeypatch, lambda matrix: matrix / 1e6)
    residual = continuation._ProjectedSystem.residual
    outside = []

    def guarded(self, u):
        try:
            return residual(self, u)
        except ValueError as exc:
            outside.append(str(exc))
            raise

    monkeypatch.setattr(continuation._ProjectedSystem, "residual", guarded)
    with pytest.raises(NonConvergence, match="damping exhausted"):
        newton_solve(LAM, B, M, "+", 1e-3, trunc=8, grid=grid)
    assert len(outside) == 5
    assert all("ball guard" in reason for reason in outside)


def test_branch_point_is_frozen(plus_march):
    point = plus_march.points[0]
    assert isinstance(point, BranchPoint)
    with pytest.raises(dataclasses.FrozenInstanceError):
        point.omega = 0.0


def test_nonconvergence_is_runtime_error():
    assert issubclass(NonConvergence, RuntimeError)


def test_omega_intercept_fits_an_even_curve():
    from types import SimpleNamespace

    def march(*ss, star=0.2, c2=-0.6, c4=40.0):
        return [SimpleNamespace(s=s, omega=star + c2 * s**2 + c4 * s**4)
                for s in ss]

    # both signs of s sit on one even curve, which the fit recovers
    intercept, bend = omega_intercept(march(1e-3, 2e-3, -3e-3, 4e-3))
    assert intercept == pytest.approx(0.2, abs=1e-15)
    assert bend == pytest.approx(-0.6, rel=1e-6)
    # two points fit Omega* + c2 s^2, one point is its own Omega
    intercept, bend = omega_intercept(march(1e-3, 2e-3, c4=0.0))
    assert (intercept, bend) == (pytest.approx(0.2, abs=1e-15),
                                 pytest.approx(-0.6, rel=1e-9))
    single = march(1e-3)
    assert omega_intercept(single) == (single[0].omega, None)
    assert omega_intercept([]) == (None, None)


@pytest.mark.parametrize("unit", [1e-60, 1e-300])
def test_omega_intercept_at_tiny_amplitudes(unit):
    # s^4 and s^2 underflow here; the fit in s over the largest |s| does not
    from types import SimpleNamespace

    # with Omega* = 0 the bend stays representable at s = 1e-60 ...
    ss = [unit * k for k in (1, 2, 3)]
    if unit == 1e-60:
        march = [SimpleNamespace(s=s, omega=-0.6 * s**2) for s in ss]
        intercept, bend = omega_intercept(march)
        assert abs(intercept) <= 1e-135
        assert bend == pytest.approx(-0.6, rel=1e-12)
    # ... and next to Omega* = 0.2 it is below rounding, a flat curve
    flat = [SimpleNamespace(s=s, omega=0.2 - 0.6 * s**2) for s in ss]
    assert omega_intercept(flat) == (0.2, 0.0)


def test_omega_intercept_has_no_bend_past_the_float_range():
    # one rounding step of Omega over (2e-200)^2 overflows: no bend, and no
    # Infinity for summary.json (warnings are errors in this suite)
    from types import SimpleNamespace

    march = [SimpleNamespace(s=1e-200, omega=0.2),
             SimpleNamespace(s=2e-200, omega=0.2 + 2.8e-17)]
    assert omega_intercept(march) == (0.2, None)


def test_newton_steps_count_every_accepted_step(grid, monkeypatch):
    # the K = 2 march grows K on its first, second and fourth points; every
    # step of every K goes through one step rule
    accepted = []
    step = continuation._ProjectedSystem.step

    def counted(system, *args, **kwargs):
        taken = step(system, *args, **kwargs)
        if taken is not None:
            accepted.append(None)
        return taken

    monkeypatch.setattr(continuation._ProjectedSystem, "step", counted)
    result = trace_branch(LAM, B, M, "+", 2e-3, 4, trunc=2, grid=grid)
    assert result.completed
    assert [p.newton_steps for p in result.points] == [3, 0, 0, 1]
    assert sum(p.newton_steps for p in result.points) == len(accepted)
    assert result.newton_steps == len(accepted)
