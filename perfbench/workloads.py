"""The benchmark's three workloads: their set-up, operations and output checks.

Each workload is a closed loop with one client: the next operation starts
when the previous one has returned. Operations come in rounds, and a run
always finishes the round it started, so every run has the same mix.

Checks may fail a correct program with a chance below 1e-6 per check, so
they stay valid when a later change moves the draw order: Monte Carlo means
are held to 6 standard errors, z statistics of an admissible strategy to
5.5, and histograms to the chi-square quantile at 1 - 1e-6 after pooling
sparse bins (where Pearson's statistic is far from chi-square).

Fitted A and B are held to 6 standard errors only where the true value is
positive. B = 0 (the MP form) sits on the boundary of the admissible forms
and its pull has a heavy tail: at 20000 trials 3 of 3000 seeds fell beyond
4 SE, where a normal pull gives 0.2.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

TWO_PI = 2.0 * math.pi
SIGMAS = 6.0
CHI2_FALSE_ALARM = 1e-6
# pooled bins hold at least this many expected counts
POOL_MIN_EXPECTED = 10.0
ADMISSIBLE_Z_MAX = 5.5
SIGNAL_P = 0.9
SIGNAL_CAP = 0.2
SIGNAL_Z_MIN = 4.0
MC_TRIALS = 1 << 21
MC_WORKERS = 2
CLI_TIMEOUT_S = 60
MAX_SEED = (1 << 44) - 1


class CheckFailed(Exception):
    """An operation's output failed one of the benchmark's checks."""


def seed_base(seed: int) -> int:
    """First per-call seed of a workload seed; calls use base, base + 1, ..."""
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"--seed must lie in [0, {MAX_SEED}], got {seed}")
    return seed << 20


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def strict_json(text: str):
    """Parse JSON that must not contain NaN or Infinity."""
    def reject(token):
        raise CheckFailed(f"non-strict JSON constant {token}")

    return json.loads(text, parse_constant=reject)


@dataclass
class OpResult:
    name: str
    seconds: float
    trials: int = 0
    digest: str = ""
    error: str | None = None
    info: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# closed-form references, independent of qguess

def form_bin_probabilities(A: float, B: float, edges) -> list[float]:
    """Exact mass of A cos^2(t/2) + B sin^2(t/2) per steradian in each theta bin."""
    alpha, beta = (A + B) / 2.0, (A - B) / 2.0
    c = [math.cos(e) for e in edges]
    return [TWO_PI * (alpha * (lo - hi) + beta * (lo * lo - hi * hi) / 2.0) for lo, hi in zip(c, c[1:])]


def form_fidelity(A: float, B: float) -> float:
    return (TWO_PI / 3.0) * (2.0 * A + B)


def pearson(counts, probs, trials) -> float:
    return sum((c - trials * p) ** 2 / (trials * p) for c, p in zip(counts, probs) if p > 0.0)


def pooled_chi2(counts, probs, trials) -> tuple[float, int]:
    """Pearson chi-square and its dof after pooling sparse bins.

    Bins are merged in order of expected count, smallest first, until each
    merged cell expects at least POOL_MIN_EXPECTED counts. The pooling
    depends on the expected counts only, never on the observed ones.
    """
    cells = []
    c_acc = p_acc = 0.0
    for c, p in sorted(zip(counts, probs), key=lambda cp: cp[1]):
        c_acc += c
        p_acc += p
        if trials * p_acc >= POOL_MIN_EXPECTED:
            cells.append((c_acc, p_acc))
            c_acc = p_acc = 0.0
    if c_acc or p_acc:
        c_last, p_last = cells.pop()
        cells.append((c_last + c_acc, p_last + p_acc))
    return pearson([c for c, _ in cells], [p for _, p in cells], trials), len(cells) - 1


def check_histogram(counts, edges, trials: int, A: float, B: float) -> float:
    from scipy.stats import chi2 as chi2_dist

    require(sum(counts) == trials and min(counts) >= 0, "histogram counts do not sum to the trials")
    chi2, dof = pooled_chi2(counts, form_bin_probabilities(A, B, edges), trials)
    limit = chi2_dist.ppf(1.0 - CHI2_FALSE_ALARM, dof)
    require(chi2 < limit, f"pooled chi2 {chi2:.2f} >= {limit:.2f} at dof {dof}")
    return chi2


def check_mean(mean: float, se: float, expected: float, what: str) -> None:
    require(math.isfinite(mean) and se > 0.0 and math.isfinite(se), f"{what}: bad mean or error bar")
    require(abs(mean - expected) <= SIGMAS * se,
            f"{what}: mean {mean!r} is {abs(mean - expected) / se:.2f} SE from {expected!r}")


# ---------------------------------------------------------------------------
# set-up, shared by the in-process runs and the set-up probes

def setup_cli_cold():
    import qguess.cli  # noqa: F401  (what every cold invocation pays first)


def setup_mc_admissible():
    from qguess.estimator import ABFormStrategy, GuessingForm, MassarPopescuStrategy

    return [
        ("mp", MassarPopescuStrategy(), 1.0 / TWO_PI, 0.0),
        ("ab", ABFormStrategy(GuessingForm.from_a_fraction(0.5)), 0.5 / TWO_PI, 0.5 / TWO_PI),
    ]


def setup_signal_detect():
    from qguess import nosignal

    strategy = nosignal.cos4_strategy()
    trials = nosignal.required_trials(nosignal.cos4_density, SIGNAL_P, SIGNAL_CAP)
    return strategy, trials


SETUPS = {
    "cli-cold": setup_cli_cold,
    "mc-admissible": setup_mc_admissible,
    "signal-detect": setup_signal_detect,
}


# ---------------------------------------------------------------------------
# cli-cold

def _csv(text: str):
    rows, meta = [], {}
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif line and not line[0].isalpha():
            rows.append([float(x) for x in line.split(",")])
    return rows, meta


def check_fidelity_report(text: str, trials: int) -> None:
    p = strict_json(text)
    require(p["command"] == "fidelity" and p["trials"] == trials, "wrong command or trial count")
    require(abs(p["analytic"] - 2.0 / 3.0) <= 1e-12, f"analytic {p['analytic']!r} is not 2/3")
    check_mean(p["mean"], p["std_error"], p["analytic"], "fidelity")


def check_density_report(text: str, trials: int) -> None:
    rows, meta = _csv(text)
    edges = [r[0] for r in rows] + [rows[-1][1]]
    counts = [int(r[3]) for r in rows]
    require(int(meta["trials"]) == trials and len(rows) == int(meta["bins"]), "wrong trials or bins")
    unpooled = pearson(counts, form_bin_probabilities(1.0 / TWO_PI, 0.0, edges), trials)
    reported = float(meta["chi2"])
    require(abs(reported - unpooled) <= 1e-9 * max(1.0, unpooled),
            f"reported chi2 {reported!r} differs from recomputed {unpooled!r}")
    check_histogram(counts, edges, trials, 1.0 / TWO_PI, 0.0)


def _check_discrimination(r: dict, trials: int) -> None:
    require(r["trials"] == trials, "wrong trial count in a discrimination report")
    for arm in ("standard", "symmetric"):
        f, se = r[f"freq_{arm}"], r[f"se_{arm}"]
        require(0.0 <= f <= 1.0, f"{arm} frequency {f!r} outside [0, 1]")
        require(math.isclose(se, math.sqrt(f * (1.0 - f) / trials), rel_tol=1e-12, abs_tol=1e-300),
                f"{arm} standard error is not binomial")
    spread = math.hypot(r["se_standard"], r["se_symmetric"])
    require(spread > 0.0, "zero spread: no information in either arm")
    z = abs(r["freq_standard"] - r["freq_symmetric"]) / spread
    require(math.isclose(r["z"], z, rel_tol=1e-9), f"z {r['z']!r} disagrees with its frequencies")


def check_nosignal_report(text: str, trials: int, admissible: bool) -> None:
    p = strict_json(text)
    reports = p["reports"]
    require(p["command"] == "nosignal" and len(reports) == len(p["constraint"]["p_values"]),
            "wrong command or report count")
    for r in reports:
        _check_discrimination(r, trials)
    residual = p["constraint"]["max_residual"]
    if admissible:
        require(residual < 1e-12, f"admissible strategy has constraint residual {residual!r}")
        z_max = max(r["z"] for r in reports)
        require(z_max < ADMISSIBLE_Z_MAX, f"admissible strategy reached z {z_max:.2f}")
    else:
        require(residual > 1e-3, f"cos4 constraint residual {residual!r} should be far from 0")


def check_fit_report(text: str, trials: int) -> None:
    p = strict_json(text)
    require(p["command"] == "fit" and p["fit"]["trials"] == trials, "wrong command or trial count")
    require(p["true"] == {"A": 1.0 / TWO_PI, "B": 0.0}, "wrong reference form")
    require(abs(p["pull_A"]) <= SIGMAS, f"pull_A {p['pull_A']!r} beyond {SIGMAS} SE")


def check_scan_report(text: str, trials: int, merit: str) -> None:
    rows, meta = _csv(text)
    require(len(rows) == int(meta["grid_points"]) == 1001, "wrong grid size")
    require(meta.get("tie") == "false" and float(meta["best_a_frac"]) == 1.0,
            f"best a_frac {meta.get('best_a_frac')} is not 1.0")
    values = [r[3] for r in rows]
    require(rows[-1][4] == 1 and sum(r[4] for r in rows) == 1, "argmax row not marked once")
    if merit == "fidelity":
        best = float(meta["best_value"])
        require(abs(best - 2.0 / 3.0) <= 1e-10, f"best value {best!r} is not 2/3")
        worst = max(abs(v - form_fidelity(r[1], r[2])) for r, v in zip(rows, values))
        require(worst <= 1e-10, f"scan deviates {worst:.2e} from the closed form")
    else:
        v0, v1 = values[0], values[-1]
        worst = max(abs(v - (v0 + r[0] * (v1 - v0))) for r, v in zip(rows, values))
        require(worst <= 1e-9, f"cos4 scan is not affine in a_frac (deviation {worst:.2e})")


def _cmd(name, args, trials, check, seeded=True, **kw):
    return {"name": name, "args": args, "trials": trials, "check": check, "seeded": seeded, "kw": kw}


# name, argv, the command's --trials value (0 for scan), check of its stdout
CLI_COMMANDS = [
    _cmd("fidelity", ["fidelity"], 1_000_000, check_fidelity_report),
    _cmd("fidelity-20k", ["fidelity", "--trials", "20000"], 20_000, check_fidelity_report),
    _cmd("density-20k", ["density", "--trials", "20000"], 20_000, check_density_report),
    _cmd("nosignal-20k", ["nosignal", "--trials", "20000"], 20_000, check_nosignal_report,
         admissible=True),
    _cmd("nosignal-cos4-20k", ["nosignal", "--strategy", "cos4", "--trials", "20000"], 20_000,
         check_nosignal_report, admissible=False),
    _cmd("fit-20k", ["fit", "--trials", "20000"], 20_000, check_fit_report),
    _cmd("scan", ["scan"], 0, check_scan_report, seeded=False, merit="fidelity"),
    _cmd("scan-cos4", ["scan", "--merit", "cos4"], 0, check_scan_report, seeded=False, merit="cos4"),
]


def cli_argv(cmd: dict, base: int, index: int) -> list[str]:
    return cmd["args"] + (["--seed", str(base + index)] if cmd["seeded"] else [])


def cli_trials(cmd: dict) -> int:
    """Trials a command runs: nosignal runs both arms at each of its 5 weights."""
    return cmd["trials"] * (10 if cmd["args"][0] == "nosignal" else 1)


class CliCold:
    """Cold `python -m qguess.cli` invocations, one command per operation."""

    name = "cli-cold"
    op_label = "cli_cold_s"
    min_rounds = 2  # so every command repeats and its bytes can be compared
    warmup_rounds = 0  # every invocation starts cold anyway
    trace_rounds = 1

    def __init__(self, seed: int, env: dict):
        self.base = seed_base(seed)
        self.env = env
        self.first_digest: dict[str, str] = {}

    def run_command(self, i: int, prefix: list[str]) -> OpResult:
        cmd = CLI_COMMANDS[i]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(prefix + cli_argv(cmd, self.base, i), env=self.env,
                                  capture_output=True, timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return OpResult(cmd["name"], time.perf_counter() - t0, error=f"no exit in {CLI_TIMEOUT_S} s")
        result = OpResult(cmd["name"], time.perf_counter() - t0, cli_trials(cmd), digest(proc.stdout))
        try:
            require(proc.returncode == 0,
                    f"exit {proc.returncode}: {proc.stderr.decode(errors='replace')[-300:]}")
            cmd["check"](proc.stdout.decode(), cmd["trials"], **cmd["kw"])
            first = self.first_digest.setdefault(cmd["name"], result.digest)
            require(first == result.digest, "stdout differs from this command's first run")
        except (CheckFailed, KeyError, ValueError, IndexError, TypeError) as exc:
            result.error = f"{type(exc).__name__}: {exc}"
        return result

    def round_ops(self, prefix_for=lambda i: [sys.executable, "-m", "qguess.cli"]):
        """One operation per command; prefix_for(i) gives the argv that
        precedes command i's qguess arguments."""
        return [lambda r, i=i: self.run_command(i, prefix_for(i)) for i in range(len(CLI_COMMANDS))]

    def summary(self, ops) -> dict:
        return {"stdout_sha256": self.first_digest}


# ---------------------------------------------------------------------------
# in-process workloads

def timed_call(name: str, fn, check) -> OpResult:
    """Time fn() alone, then check its output; any exception fails the op."""
    t0 = time.perf_counter()
    try:
        out = fn()
    except Exception as exc:  # an operation that raises is a failed operation
        return OpResult(name, time.perf_counter() - t0, error=f"{type(exc).__name__}: {exc}")
    result = OpResult(name, time.perf_counter() - t0)
    try:
        result.trials, data, result.info = check(out)
        result.digest = digest(data)
    except (CheckFailed, ValueError) as exc:
        result.error = f"{type(exc).__name__}: {exc}"
    return result


class McAdmissible:
    """monte_carlo_fidelity, then collect_histogram + fit_ab_least_squares,
    for the MP and a_frac = 0.5 strategies, at 2^21 trials and 2 workers."""

    name = "mc-admissible"
    op_label = "round_s"
    min_rounds = 1
    warmup_rounds = 1
    trace_rounds = 3

    def __init__(self, seed: int, env: dict):
        self.base = seed_base(seed)
        self.setup()

    def setup(self):
        self.strategies = setup_mc_admissible()

    def round_ops(self):
        return [self.round]

    def summary(self, ops) -> dict:
        per_call: dict = {}
        for op in ops:
            for name, seconds in op.info.get("call_s", {}).items():
                per_call.setdefault(name, []).append(seconds)
        return {"call_s.p50": {name: statistics.median(v) for name, v in per_call.items()}}

    def round(self, r) -> OpResult:
        """The round's four library calls as one operation. Their times fall in
        separate clusters (about 0.5 s for MP, 1 s for AB), and a median over
        the mix would sit in the gap between two of them."""
        calls = []
        for tag, strategy, A, B in self.strategies:
            calls.append(self.fidelity(r, tag, strategy, A, B))
            calls.append(self.histogram(r, tag, strategy, A, B))
        errors = [f"{c.name}: {c.error}" for c in calls if c.error]
        return OpResult(
            "round",
            sum(c.seconds for c in calls),
            sum(c.trials for c in calls),
            digest("".join(c.digest for c in calls).encode()),
            "; ".join(errors) or None,
            {"call_s": {c.name: c.seconds for c in calls}},
        )

    def fidelity(self, r, tag, strategy, A, B) -> OpResult:
        from qguess import merit

        def check(rep):
            require(rep.trials == MC_TRIALS, "wrong trial count")
            check_mean(rep.value, rep.std_error, form_fidelity(A, B), f"fidelity[{tag}]")
            return MC_TRIALS, repr((rep.value, rep.std_error)).encode(), {}

        return timed_call(
            f"monte_carlo_fidelity.{tag}",
            lambda: merit.monte_carlo_fidelity(strategy, trials=MC_TRIALS, seed=self.base + r,
                                               workers=MC_WORKERS),
            check,
        )

    def histogram(self, r, tag, strategy, A, B) -> OpResult:
        from qguess import estimator, nosignal

        def call():
            hist = estimator.collect_histogram(strategy, trials=MC_TRIALS, seed=self.base + r,
                                               workers=MC_WORKERS)
            return hist, nosignal.fit_ab_least_squares(hist)

        def check(out):
            hist, fit = out
            counts = [int(c) for c in hist.counts]
            chi2 = check_histogram(counts, list(hist.theta_edges), MC_TRIALS, A, B)
            for name, got, want, se in (("A", fit.A, A, fit.se_A), ("B", fit.B, B, fit.se_B)):
                if want > 0.0:  # boundary pulls have a heavy tail; see the top
                    require(se > 0.0 and abs(got - want) <= SIGMAS * se,
                            f"fit {name}[{tag}] {got!r} beyond {SIGMAS} SE of {want!r}")
            data = hist.counts.tobytes() + repr(sorted(fit.as_dict().items())).encode()
            return MC_TRIALS, data, {"pooled_chi2": chi2}

        return timed_call(f"collect_histogram+fit.{tag}", call, check)


class SignalDetect:
    """run_discrimination_experiment on cos4 at the criterion-5 trial count,
    for consecutive seeds, one worker."""

    name = "signal-detect"
    op_label = "call_s"
    min_rounds = 1
    warmup_rounds = 1
    trace_rounds = 12

    def __init__(self, seed: int, env: dict):
        from qguess import nosignal

        self.base = seed_base(seed)
        self.setup()
        # expected cap frequencies by quadrature, for the per-arm checks
        self.expected = nosignal.expected_cap_frequencies(nosignal.cos4_density, SIGNAL_P, SIGNAL_CAP)

    def setup(self):
        self.strategy, self.trials = setup_signal_detect()

    def round_ops(self):
        return [self.discriminate]

    def summary(self, ops) -> dict:
        z = [op.info["z"] for op in ops if "z" in op.info]
        return {"required_trials": self.trials,
                "z_gt_5_rate": sum(v > 5.0 for v in z) / len(z) if z else None}

    def discriminate(self, r) -> OpResult:
        from qguess import nosignal

        n = self.trials

        def check(rep):
            r_dict = rep.as_dict()
            _check_discrimination(r_dict, n)
            for arm, want in zip(("standard", "symmetric"), self.expected):
                se = math.sqrt(want * (1.0 - want) / n)
                got = r_dict[f"freq_{arm}"]
                require(abs(got - want) <= SIGMAS * se,
                        f"{arm} cap frequency {got!r} is {abs(got - want) / se:.2f} SE from {want!r}")
            require(rep.z >= SIGNAL_Z_MIN, f"z {rep.z:.2f} < {SIGNAL_Z_MIN}: signaling missed")
            return 2 * n, repr(sorted(r_dict.items())).encode(), {"z": rep.z}

        return timed_call(
            "run_discrimination_experiment",
            lambda: nosignal.run_discrimination_experiment(
                self.strategy, SIGNAL_P, cap_half_angle=SIGNAL_CAP, trials=n, seed=self.base + r),
            check,
        )


def run_rounds(round_ops, seconds: float = 0.0, min_rounds: int = 1, first: int = 0):
    """Run whole rounds, numbered from `first`, until `seconds` have passed,
    and at least `min_rounds`. Returns (results, wall seconds, rounds run)."""
    results = []
    t0 = time.perf_counter()
    r = 0
    while r < min_rounds or time.perf_counter() - t0 < seconds:
        for op in round_ops:
            results.append(op(first + r))
        r += 1
    return results, time.perf_counter() - t0, r
