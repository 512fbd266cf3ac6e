"""Seeded workloads: op lists, op execution and correctness checks.

Each workload turns a seed into a fixed list of ops (one pass).  Every op is
one unit of user work and returns its output; checks run on the outputs
outside the timed region.  The strata of a pass (state dimension, order,
data kind, control) are the same for every seed so that passes cost about
the same; the seed draws the matrices, delays, tables, gains and jitter.
See NOTES.md for why each workload exists.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np

import fracdelay as fd
import hostspeed
from fracdelay import cli as fd_cli

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# criterion-2 tolerance of the acceptance suite: march vs oracle, relative
# to the trajectory sup
ORACLE_REL_TOL = 1e-3


class Op:
    """One unit of user work; ``fn(tracer)`` runs it and returns its output.

    ``inputs`` are what the program receives: a problem, arrays, or a CLI
    argument list (whose JSON files are read for ``describe``).
    """

    def __init__(self, label: str, n: int, fn, inputs=(), problem=None,
                 argv=None):
        self.label = label
        self.n = n
        self.fn = fn
        self.problem = problem
        self.argv = argv
        self.inputs = tuple(inputs)

    def __call__(self, tracer=None):
        return self.fn(tracer)

    def describe(self) -> str:
        """Label plus a digest of the op's inputs, for comparing op lists."""
        h = hashlib.sha256()
        if self.problem is not None:
            h.update(json.dumps(fd.problem_to_dict(self.problem),
                                sort_keys=True).encode())
        for item in self.inputs:
            h.update(np.asarray(item, dtype=float).tobytes())
        for arg in self.argv or ():
            path = Path(arg)
            if arg.endswith(".json") and path.is_file():
                # by name and content: the run's directory differs per run
                h.update(path.name.encode() + path.read_bytes())
            else:
                h.update(arg.encode())
        return f"{self.label} | {h.hexdigest()}"


class Checks:
    """Correctness checks as observed/allowed ratios; a ratio <= 1 passes."""

    def __init__(self):
        self.worst = 0.0
        self.failures: list[tuple[str, str, str]] = []
        self.count = 0

    def ratio(self, label: str, name: str, observed: float,
              allowed: float) -> bool:
        self.count += 1
        r = observed / allowed
        if not math.isfinite(r):
            r = math.inf
        self.worst = max(self.worst, r)
        if not r <= 1.0:
            self.failures.append((label, name, f"{observed!r} > {allowed!r}"))
            return False
        return True

    def require(self, label: str, name: str, ok: bool,
                detail: str = "") -> bool:
        """A pass/fail check: ratio 0 when it holds, infinite when not."""
        self.count += 1
        if not ok:
            self.worst = math.inf
            self.failures.append((label, name, detail))
        return ok

    def failed_labels(self) -> set:
        return {label for label, _, _ in self.failures}


# ---------------------------------------------------------------------------
# problem generation helpers
# ---------------------------------------------------------------------------

def rng_for(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed) % 2**63,
                                  zlib.crc32(workload.encode())])


def spectrum(n: int, lo: float, hi: float) -> np.ndarray:
    """Eigenvalue magnitudes spread geometrically over [lo, hi].

    Fixed per stratum, not drawn: with normal matrices the cost of the
    kernel work depends on the spectrum only, so passes of different seeds
    cost the same while the seed still draws the eigenvector basis.
    """
    if n == 1:
        return np.array([math.sqrt(lo * hi)])
    return np.geomspace(lo, hi, n)


def stable_matrix(rng, mus, mix: float | None) -> np.ndarray:
    """V diag(-mus) V^-1 with V an orthogonal basis plus ``mix`` noise.

    ``mix=None`` gives the diagonal matrix itself.
    """
    n = len(mus)
    if mix is None:
        return np.diag(-np.asarray(mus, dtype=float))
    V = np.linalg.qr(rng.normal(size=(n, n)))[0]
    if mix > 0:
        V = V + mix * rng.normal(size=(n, n))
    return V @ np.diag(-np.asarray(mus)) @ np.linalg.inv(V)


def sheared_matrix(rng, mus, shear: float) -> np.ndarray:
    """Q D^1/2 (M - I) D^1/2 Q^T with D = diag(mus): non-normal.

    Q is a seeded orthogonal basis and M a seeded strictly upper triangular
    matrix of norm ``shear``, so the numerical abscissa is at most
    ``-(1 - shear) min(mus)``.  For ``shear`` below the margin of
    ``fit_decay_envelope`` (0.1), ||e^{A0 t}|| stays under the fitted
    envelope from t = 0 on: there is no early transient for the fit to miss
    (see NOTES.md).
    """
    n = len(mus)
    Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    M = np.triu(rng.normal(size=(n, n)), 1)
    if n > 1:
        M *= shear / np.linalg.norm(M, 2)
    root = np.diag(np.sqrt(np.asarray(mus, dtype=float)))
    return Q @ root @ (M - np.eye(n)) @ root @ Q.T


def scaled(rng, shape, norm: float) -> np.ndarray:
    M = rng.normal(size=shape)
    return M * (norm / np.linalg.norm(M, 2))


def tv_table(rng, n: int, t_end: float, norm: float, samples: int = 41):
    """Linear matrix table on [0, t_end], sup norm `norm`, decaying in t."""
    times = np.linspace(0.0, t_end, samples)
    vals = np.stack([scaled(rng, (n, n), norm) for _ in times])
    vals *= np.exp(-times / (0.2 * t_end))[:, None, None]
    return fd.TimeFunctionTable(times, vals, "linear")


def input_table(rng, t_end: float, samples: int = 101):
    times = np.linspace(0.0, t_end, samples)
    w, phase = rng.uniform(0.5, 2.0), rng.uniform(0, 2 * math.pi)
    return fd.TimeFunctionTable(times, np.sin(w * times + phase)[:, None],
                                "linear")


def initial_data(rng, n: int, k: int, h: float):
    start = np.array([-h if h > 0 else 0.0])
    vecs = [rng.normal(size=n)] + [0.3 * rng.normal(size=n)
                                   for _ in range(k - 1)]
    return [fd.TimeFunctionTable(start, v[None, :], "const") for v in vecs]


def make_problem(rng, n: int, alpha: float, mus, mix: float | None, delays,
                 tv: str | None, control: str | None, t_end: float,
                 coupling: float = 0.3):
    """Delayed (or delay-free, all lags zero) problem with the given strata.

    The lag-0 time-varying part ('tv': linear table, 'const': matrix) and the
    delayed couplings are scaled to ``coupling`` times the smallest decay
    rate; feedback gains get declared bounds 25% above their norms.
    """
    mu_min = float(np.min(mus))
    A0 = stable_matrix(rng, mus, mix)
    A = [A0]
    for _ in delays[1:]:
        A.append(scaled(rng, (n, n), coupling * mu_min / len(delays)))
    if all(d == 0.0 for d in delays):
        # delay-free encoding: split the kernel matrix over the lags
        A[0] = A0 - sum(A[1:])
    A_tilde = [None] * len(delays)
    if tv == "tv":
        A_tilde[0] = tv_table(rng, n, t_end, coupling * mu_min)
    elif tv == "const":
        A_tilde[0] = scaled(rng, (n, n), coupling * mu_min)
    B = None
    ctl = None
    if control is not None:
        B = scaled(rng, (n, 1), 1.0)
    if control == "feedback":
        gains = [scaled(rng, (1, n), 0.5 * coupling * mu_min / len(delays))
                 for _ in delays]
        ctl = fd.ControlInput.feedback(
            gains, [1.25 * np.linalg.norm(K, 2) for K in gains])
    elif control == "open_loop":
        ctl = fd.ControlInput.open_loop(input_table(rng, t_end))
    k = int(math.ceil(alpha - 1e-12))
    phi = initial_data(rng, n, k, max(delays))
    return fd.validate_system(alpha, delays, A, A_tilde, B, phi,
                              control=ctl)


def _fingerprint_json(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, allow_nan=True).encode()


# ---------------------------------------------------------------------------
# certify-grid
# ---------------------------------------------------------------------------

# (n, alpha, delay kind, lag-0 time-varying part, control).  The kernel
# matrix A0 is normal with a fixed spectrum and the seed draws its
# eigenvector basis, so the kernel quadrature costs the same for every seed.
# Orders are fixed per stratum, away from the regimes where the default-grid
# quadrature stalls (QuadratureNotConverged, see NOTES.md).
# Seven of the nine scalar ops have orders below 1 and cost about the same,
# so the medians over the scalar ops and over all ops fall among them.
CERTIFY_STRATA = (
    (1, 0.6, "delayed", "tv", None),
    (1, 0.75, "delay_free", "tv", None),
    (6, 0.95, "delayed", "const", None),
    (1, 1.2, "delayed", None, "feedback"),
    (1, 0.65, "delayed", "const", "feedback"),
    (3, 0.9, "delayed", "tv", None),
    (1, 0.8, "delayed", "tv", "feedback"),
    (1, 1.5, "delayed", "const", "feedback"),
    (1, 0.7, "delay_free", "const", None),
    (1, 0.9, "delayed", None, None),
    (1, 0.85, "delay_free", "const", None),
)


class Workload:
    """Defaults shared by the workloads."""
    needs_repeat = False    # whether checks need every op run at least twice
    # samples of every op per run, whatever --seconds says
    min_samples = 2
    # the reference that scales op times to a fixed host speed
    host_reference = hostspeed.LOOP


class CertifyGrid(Workload):
    name = "certify-grid"

    def build(self, seed: int, workdir: Path) -> list[Op]:
        rng = rng_for(self.name, seed)
        ops = []
        for i, (n, alpha, kind, tv, ctl) in enumerate(CERTIFY_STRATA):
            delays = ([0.0] if kind == "delay_free"
                      else [0.0, float(rng.uniform(0.4, 1.0))])
            prob = make_problem(rng, n, alpha, spectrum(n, 0.3, 1.0), 0.0,
                                delays, tv, ctl, t_end=200.0)
            ops.append(Op(f"certify#{i} n={n} a={alpha:.3f} {kind} "
                          f"{tv or 'no-tv'} {ctl or 'no-control'}", n,
                          self._runner(prob), problem=prob))
        return ops

    @staticmethod
    def _runner(prob):
        def run(tracer=None):
            report = fd.certify(prob)
            bounds = (fd.delay_free_certify(prob)
                      if prob.system.is_delay_free else None)
            return report, bounds
        return run

    def fingerprint(self, out) -> bytes:
        report, bounds = out
        return _fingerprint_json([report.as_dict(),
                                  bounds.as_dict() if bounds else None])

    def check(self, op: Op, out, checks: Checks) -> None:
        report, bounds = out
        prob = op.problem
        grid = [e.delta for e in report.grid]
        checks.require(op.label, "default delta grid",
                       grid == [float(d) for d in fd.certificates
                                .DEFAULT_DELTA_GRID])
        checks.require(op.label, "infeasible entries are infinite",
                       all(math.isfinite(e.value) == e.feasible
                           for e in report.grid))
        # report invariants: verdict, constant and witness from the grid
        feas = [e for e in report.grid if e.feasible]
        best = min(feas, key=lambda e: e.value) if feas else None
        if best is None or best.value > 1.0 + 1e-12:
            expect = ("Inconclusive", None, None, None)
        else:
            expect = ("ContractiveGAS" if best.value < 1.0 - 1e-12
                      else "NonExpansiveStable", best.value, best.delta,
                      prob.ics.sup_history_sum())
        got = (report.verdict, report.contraction_constant,
               report.witness_delta, report.sup_bound)
        checks.require(op.label, "verdict invariants", got == expect,
                       f"{got} != {expect}")
        if bounds is None:
            return
        # criterion 6: the delay-free bound dominates the simulated sup
        if not checks.require(op.label, "delay-free smallness condition",
                              bounds.condition_holds):
            return
        grid = fd.align_grid(0.01, 20.0, prob.system.delays)
        traj = fd.solve_delay_free(prob, grid)
        sim_sup = float(np.max(np.linalg.norm(traj.states, 2, axis=1)))
        checks.ratio(op.label, "K2 dominates simulated sup", sim_sup,
                     bounds.K2_bar)


# ---------------------------------------------------------------------------
# simulate-long
# ---------------------------------------------------------------------------

# (n, alpha, nominal nodes, lag-0 time-varying part, control, delay count);
# the first op of every list is a cheap one, run once untimed as warm-up
SIMULATE_STRATA = (
    (3, 0.6, 2500, "tv", "feedback", 1),
    (1, 0.7, 20000, "tv", "open_loop", 1),
    (6, 0.8, 2500, "tv", "open_loop", 1),
    (1, 1.3, 10000, None, "feedback", 2),
    (6, 1.2, 5000, "const", None, 1),
    (1, 1.6, 10000, "tv", "feedback", 1),
    (6, 1.4, 2500, "const", "feedback", 1),
)
SIMULATE_HORIZON = 10.0


class SimulateLong(Workload):
    name = "simulate-long"
    # the median op falls between two ops of similar cost, so op_s.p50 reads
    # about one op's samples: two per run spread 0.10 over ten seeds
    min_samples = 3

    def build(self, seed: int, workdir: Path) -> list[Op]:
        rng = rng_for(self.name, seed)
        ops = []
        for i, (n, alpha, nodes, tv, ctl, lags) in enumerate(SIMULATE_STRATA):
            alpha = alpha + rng.uniform(-0.03, 0.03)
            r1 = float(rng.uniform(0.5, 1.5))
            delays = [0.0] + [r1 * (j + 1) for j in range(lags)]
            prob = make_problem(rng, n, alpha, spectrum(n, 0.5, 2.0), 0.15,
                                delays, tv, ctl,
                                t_end=2 * SIMULATE_HORIZON)
            grid = fd.align_grid(SIMULATE_HORIZON / nodes, SIMULATE_HORIZON,
                                 prob.system.delays)
            ops.append(Op(f"simulate#{i} n={n} a={alpha:.3f} "
                          f"L={grid.node_count} {tv or 'no-tv'} "
                          f"{ctl or 'no-control'}", n,
                          self._runner(prob, grid), problem=prob))
        return ops

    @staticmethod
    def _runner(prob, grid):
        def run(tracer=None):
            traj = fd.solve_trajectory(prob, grid)
            ref = fd.solve_oracle(prob, grid)
            return traj.states, ref.states
        return run

    def fingerprint(self, out) -> bytes:
        return b"".join(a.tobytes() for a in out)

    def check(self, op: Op, out, checks: Checks) -> None:
        states, ref = out
        if not checks.require(op.label, "finite states",
                              bool(np.all(np.isfinite(states))
                                   and np.all(np.isfinite(ref)))):
            return
        rel = float(np.max(np.abs(states - ref)) / np.max(np.abs(states)))
        checks.ratio(op.label, "march vs oracle (criterion 2)", rel,
                     ORACLE_REL_TOL)


# ---------------------------------------------------------------------------
# verify-bounds
# ---------------------------------------------------------------------------

# (n, alpha): every order for n = 1 and n = 6 plus a second 1.5, so that the
# medians over the n = 1 and n = 6 ops fall inside one cost cluster, and an
# odd count whose middle op has neighbours of about its cost
VERIFY_STRATA = ((1, 0.5), (6, 0.5), (1, 1.0), (6, 1.0), (1, 1.5), (6, 1.5),
                 (1, 2.0), (6, 2.0), (1, 1.5), (6, 1.5), (2, 1.5), (3, 0.5),
                 (4, 2.0), (5, 1.0), (3, 2.0))
# norm of sheared_matrix's triangular part: below fit_decay_envelope's
# 10% margin, so the envelope fit has no early transient to miss
VERIFY_SHEAR = 0.08


class VerifyBounds(Workload):
    name = "verify-bounds"

    def build(self, seed: int, workdir: Path) -> list[Op]:
        rng = rng_for(self.name, seed)
        ops = []
        for i, (n, alpha) in enumerate(VERIFY_STRATA):
            A0 = sheared_matrix(rng, spectrum(n, 0.2, 2.0), VERIFY_SHEAR)
            # criterion-8 grids
            t_grid = (np.linspace(1.0, 10.0, 50) if alpha < 1
                      else np.geomspace(0.1, 10.0, 50))
            ops.append(Op(f"verify#{i} n={n} a={alpha}", n,
                          self._runner(alpha, A0, t_grid),
                          inputs=(alpha, A0, t_grid)))
        return ops

    @staticmethod
    def _runner(alpha, A0, t_grid):
        def run(tracer=None):
            return fd.verify_lemma22((alpha, A0), t_grid)
        return run

    def fingerprint(self, out) -> bytes:
        return _fingerprint_json(out.as_dict())

    def check(self, op: Op, out, checks: Checks) -> None:
        failed = [c.name for c in out.checks if not c.passed]
        checks.require(op.label, "verify_lemma22 all_passed", out.all_passed,
                       f"failed: {failed}")


# ---------------------------------------------------------------------------
# cli-fixtures
# ---------------------------------------------------------------------------

FIXTURES = ROOT / "tests" / "fixtures"


class CliFixtures(Workload):
    name = "cli-fixtures"
    needs_repeat = True     # stdout must be byte-identical across repeats
    # an op waits for a child process on the benchmark's CPU
    host_reference = hostspeed.SPAWN

    def build(self, seed: int, workdir: Path) -> list[Op]:
        rng = rng_for(self.name, seed)
        prob = make_problem(rng, 6, 1.25, spectrum(6, 0.3, 1.0), 0.15,
                            [0.0, float(rng.uniform(0.4, 1.0))], "const",
                            "feedback", t_end=10.0)
        gen6 = workdir / "generated_6x6.json"
        gen6.write_text(fd_cli.dump_json(fd.problem_to_dict(prob)) + "\n",
                        encoding="utf-8")
        fx = FIXTURES
        commands = (
            (1, ["certify", "--problem", f"{fx}/scalar_contractive.json",
                 "--delta-grid", "0.1,10,7"]),
            (1, ["simulate", "--problem", f"{fx}/frac_delay_a07.json",
                 "--step", "0.01", "--horizon", "2", "--oracle"]),
            (1, ["ml", "--problem", f"{fx}/frac_nodelay.json", "--t", "1.0"]),
            (1, ["verify-bounds", "--problem", f"{fx}/exp_decay.json",
                 "--t-grid", "0.5,1,2,5"]),
            (1, ["certify", "--problem", f"{fx}/exp_decay.json",
                 "--delta-grid", "0.1,10,5"]),
            (6, ["certify", "--problem", str(gen6), "--delta-grid",
                 "0.5,2,3"]),
            (6, ["simulate", "--problem", str(gen6), "--step", "0.01",
                 "--horizon", "2", "--oracle"]),
            (6, ["spectral", "--problem", str(gen6)]),
            (6, ["verify-bounds", "--problem", str(gen6), "--t-grid",
                 "0.5,1,2,5"]),
        )
        return [Op(f"cli#{i} {argv[0]} {Path(argv[2]).name}", n,
                   self._runner(argv, workdir), argv=argv)
                for i, (n, argv) in enumerate(commands)]

    @staticmethod
    def _runner(argv, workdir: Path):
        def run(tracer=None):
            env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
            if tracer is None:
                cmd = [sys.executable, "-m", "fracdelay", *argv]
            else:
                spans = workdir / "spans.json"
                cmd = [sys.executable, str(HERE / "cli_traced.py"),
                       str(spans), *argv]
            proc = subprocess.run(cmd, capture_output=True, cwd=ROOT,
                                  env=env, check=False)
            if tracer is not None:
                tracer.adopt(json.loads(spans.read_text()), tracer.current)
                spans.unlink()
            return proc.returncode, proc.stdout, proc.stderr
        return run

    def fingerprint(self, out) -> bytes:
        code, stdout, _ = out
        return str(code).encode() + b"\0" + stdout

    def check(self, op: Op, out, checks: Checks) -> None:
        code, stdout, stderr = out
        if not checks.require(op.label, "exit code 0 or 2", code in (0, 2),
                              stderr.decode(errors="replace")[-300:]):
            return
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            local_code = fd_cli.main(list(op.argv))
        checks.require(op.label, "stdout matches in-process library",
                       (local_code, buf.getvalue().encode()) == (code, stdout))
        doc = json.loads(stdout)
        if "oracle_sup_rel_diff" in doc:
            checks.ratio(op.label, "march vs oracle (criterion 2)",
                         doc["oracle_sup_rel_diff"], ORACLE_REL_TOL)


WORKLOADS = {w.name: w for w in (CertifyGrid(), SimulateLong(),
                                 VerifyBounds(), CliFixtures())}
