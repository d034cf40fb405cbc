"""Reference values and output checks for the benchmark.

Nothing here imports photon_darwinism: every reference is evaluated from
the formulas the package documents, with mpmath at 60 digits or with
benchmark-side numpy, so a check never runs the code under test.

Each emitted value gets two verdicts.

* strict: the value agrees with the reference to one unit in its 12th
  significant digit, the CLI's stated output precision (for quadrature
  results, plus the rounding bound of the stated quadrature order; for
  redundancy roots, plus half the bisection tolerance ``f_tol``). The
  share of calls with any value outside it is reported as ``error_rate``.
* gate: the strict tolerance plus the forward rounding-error budget of
  the double-precision formula the package documents, rounding of its
  inputs to doubles included, evaluated at the reference point. Only a miss beyond that budget means the program
  computes something other than what it states, so only gate misses
  count as failed calls.

The gap between the two is the known ill-conditioning (cancellation in
``ln 2 - h(Gamma^(alpha f))`` and the lost plateau deficit): it is
measured and reported on every run rather than hidden.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import mpmath as mp
import numpy as np

mp.mp.dps = 60

EPS = 2.0 ** -52
LN2 = mp.log(2)
F_TOL = 1e-12           # redundancy_exact's bisection tolerance on f
MAX_U = 1.0 - 2.0 ** -53
# A 60-digit reference this close to zero is zero: what is left is the
# working precision's own rounding of cancelling O(1) terms.
REF_ZERO = 1e-50

# SI constants exactly as the package documents them.
SPEED_OF_LIGHT = mp.mpf(299792458)
BOLTZMANN = mp.mpf("1.380649e-23")
HBAR = mp.mpf("1.054571817e-34")
ZETA_3 = mp.zeta(3)
ZETA_4 = mp.zeta(4)
ZETA_9 = mp.zeta(9)


def ulp12(ref: float) -> float:
    """One unit in the 12th significant digit of ref (0 for ref == 0)."""
    ref = abs(float(ref))
    if ref == 0.0:
        return 0.0
    return 10.0 ** (math.floor(math.log10(ref)) - 11)


@dataclass
class Verdict:
    """Outcome of checking one CLI call."""

    points: int = 0
    strict_misses: int = 0
    gate_misses: int = 0
    notes: list = field(default_factory=list)

    def value(self, label, got, ref, tol=0.0, budget=0.0):
        """Compare one emitted number with its reference."""
        self.points += 1
        ref = float(ref)
        if abs(ref) < REF_ZERO:
            ref = 0.0
        if got is None or not math.isfinite(got):
            self._miss(label, got, ref, gate=True)
            return
        err = abs(got - ref)
        strict_tol = ulp12(ref) + tol
        if err <= strict_tol:
            return
        self._miss(label, got, ref, gate=err > strict_tol + budget)

    def require(self, label, ok):
        """A structural condition whose failure fails the call outright."""
        if not ok:
            self.strict_misses += 1
            self.gate_misses += 1
            self._note(f"{label}: failed")

    def _miss(self, label, got, ref, gate):
        self.strict_misses += 1
        if gate:
            self.gate_misses += 1
        self._note(f"{label}: got {got!r}, reference {ref!r}"
                   + (" (beyond error budget)" if gate else ""))

    def _note(self, text):
        if len(self.notes) < 3:
            self.notes.append(text)

    @property
    def strict_ok(self) -> bool:
        return self.strict_misses == 0

    @property
    def gate_ok(self) -> bool:
        return self.gate_misses == 0


# ---------------------------------------------------------------------------
# entropy kernels at 60 digits


def h_mp(x):
    """h(x) = [(1+u) ln(1+u) + (1-u) ln(1-u)] / 2 with u = sqrt(x)."""
    if x <= 0:
        return mp.mpf(0)
    if x >= 1:
        return LN2
    u = mp.sqrt(x)
    return ((1 + u) * mp.ln(1 + u) + (1 - u) * mp.ln(1 - u)) / 2


def u_atanh(x: float) -> float:
    """u arctanh(u) at u = sqrt(x): x h'(x) up to a factor 2."""
    u = min(math.sqrt(max(x, 0.0)), MAX_U)
    return u * math.atanh(u)


def mi_at_time(t, alpha, f):
    """(I, budget): reference I(t, alpha, f) and the double-precision budget.

    I = ln 2 + h(e^{-t(1-f)}) - h(e^{-t alpha f}) - h(e^{-t}), the
    alpha = 0 form dropping the ln 2 pair. The budget bounds the forward
    error of that sum in doubles: a few roundings of each O(ln 2) term
    plus each kernel argument's rounding, amplified by x h'(x) and by the
    exponent s (the argument is exp(-s) with s itself rounded).
    """
    t_mp, a_mp, f_mp = mp.mpf(t), mp.mpf(alpha), mp.mpf(f)
    s = (t_mp * (1 - f_mp), t_mp * a_mp * f_mp, t_mp)
    xs, hs = zip(*(_h_of_exp(si) for si in s))
    if a_mp == 0:
        value = hs[0] - hs[2]
        terms = (hs[0], hs[2])
    else:
        value = LN2 + hs[0] - hs[1] - hs[2]
        terms = (LN2, *hs)
    budget = EPS * (4.0 * float(sum(terms)) + sum(
        u_atanh(x) * (2.0 + float(si)) for x, si in zip(xs, s)))
    return value, budget


@functools.lru_cache(maxsize=1 << 16)
def _h_of_exp(s):
    """(e^-s as a float, h(e^-s)); a table's rows share the h(e^-t) term."""
    x = mp.exp(-s)
    return float(x), h_mp(x)


def mi_slope(t, alpha, f):
    """dI/df = (t/2) [u_a arctanh(u_a) + alpha u_b arctanh(u_b)] at 60 digits."""
    t_mp, a_mp, f_mp = mp.mpf(t), mp.mpf(alpha), mp.mpf(f)
    ua = mp.sqrt(mp.exp(-t_mp * (1 - f_mp)))
    ub = mp.sqrt(mp.exp(-t_mp * a_mp * f_mp))
    term_a = ua * mp.atanh(ua) if ua < 1 else mp.inf
    term_b = ub * mp.atanh(ub) if ub < 1 else mp.inf
    return t_mp / 2 * (term_a + a_mp * term_b)


def _cli_gamma(t):
    """Exactly the double the CLI passes on as Gamma = exp(-t).

    It underflows to 0 past t of about 745, after which every power of it
    is lost; the budgets below include what that rounding moves.
    """
    return mp.mpf(math.exp(-float(t)))


def mi_unbalanced(t, f, mu):
    """(I, budget) for ln 2 + hs(G^(1-f)) - hs(G^f) - hs(G), hs(x) = h(mu + (1-mu)x)."""
    g, g_cli = mp.exp(-mp.mpf(t)), _cli_gamma(t)
    mu_mp, f_mp = mp.mpf(mu), mp.mpf(f)
    value = LN2
    budget = 4.0 * EPS * float(LN2)
    for w, sign in ((1 - f_mp, 1), (f_mp, -1), (mp.mpf(1), -1)):
        y = mu_mp + (1 - mu_mp) * g ** w
        hs = h_mp(y)
        value += sign * hs
        moved = abs(hs - h_mp(mu_mp + (1 - mu_mp) * g_cli ** w))
        budget += float(moved) + EPS * (4.0 * float(hs) + 3.0 * u_atanh(float(y)))
    return value, budget


def _m_entropy(x, M):
    top = (1 + (M - 1) * x) / M
    rest = (1 - x) / M
    ent = -top * mp.ln(top)
    if rest > 0:
        ent -= (M - 1) * rest * mp.ln(rest)
    return ent, top, rest


def mi_mway(t, f, M):
    """(I, budget) for E(f) + E(1) - E(1-f), E(w) the M-spectrum entropy at G^(w/2)."""
    g, g_cli = mp.exp(-mp.mpf(t)), _cli_gamma(t)
    f_mp = mp.mpf(f)
    value = mp.mpf(0)
    budget = 0.0
    for w, sign in ((f_mp, 1), (mp.mpf(1), 1), (1 - f_mp, -1)):
        x = g ** (w / 2)
        ent, top, rest = _m_entropy(x, M)
        value += sign * ent
        budget += float(abs(ent - _m_entropy(g_cli ** (w / 2), M)[0]))
        # x dE/dx = x (M-1)/M ln(rest/top); rest is clamped at the
        # smallest spacing a double can resolve next to 1.
        rest_f = max(float(rest), EPS / M)
        slope = float(x) * (M - 1) / M * abs(math.log(rest_f / float(top)))
        budget += EPS * (4.0 * abs(float(ent)) + 3.0 * slope)
    return value, budget


# ---------------------------------------------------------------------------
# redundancy


def _excess(t, alpha, f, target):
    """(I(f) - target, MI budget at f)."""
    value, budget = mi_at_time(t, alpha, f)
    return value - target, budget


def check_redundancy_exact(verdict: Verdict, label, got, t, alpha, delta):
    """Check one redundancy_exact output (a number or None) at 60 digits.

    The reported R = 1/f is right when the true root of
    I(f) = (1 - delta) ln 2 lies within f_tol/2 of f, widened by the
    12-digit rounding of R. The gate widens that interval by the MI budget
    over the slope dI/df, and lets I - target miss its sign at either end
    by the MI budget (the interval is clipped to (0, 1/2]).
    """
    verdict.points += 1
    if t == 0.0:
        verdict.require(f"{label} at t = 0 is None", got is None)
        return
    target = (1 - mp.mpf(delta)) * LN2
    slack = 2.0 * EPS * float(LN2)  # rounding of the target itself
    if got is None:
        excess, budget = _excess(t, alpha, 0.5, target)
        if excess < 0:
            return
        verdict.strict_misses += 1
        if float(excess) > budget + slack:
            verdict.gate_misses += 1
        verdict._note(f"{label}: None, but I(1/2) reaches the target")
        return
    if not math.isfinite(got) or got < 2.0 * (1.0 - 1e-11):
        verdict.require(f"{label} = {got!r} is a redundancy >= 2", False)
        return
    f_rep = 1.0 / got
    half = F_TOL / 2 + f_rep * ulp12(got) / got
    (lo, _), (hi, _) = _ends(t, alpha, target, f_rep, half)
    if lo < 0 <= hi:
        return
    verdict.strict_misses += 1
    slope = mi_slope(t, alpha, f_rep)
    _, budget = mi_at_time(t, alpha, f_rep)
    widen = (budget + slack) / float(slope) if slope > 0 else 0.5
    (lo, b_lo), (hi, b_hi) = _ends(t, alpha, target, f_rep, half + widen)
    if float(lo) < b_lo + slack and float(hi) >= -(b_hi + slack):
        verdict._note(f"{label}: R = {got!r} misses the 12-digit root")
    else:
        verdict.gate_misses += 1
        verdict._note(f"{label}: R = {got!r} misses the root beyond the budget")


def _ends(t, alpha, target, f_rep, half):
    """I - target and its budget at both ends of [f - half, f + half] in (0, 1/2]."""
    return (_excess(t, alpha, max(f_rep - half, 0.0), target),
            _excess(t, alpha, min(f_rep + half, 0.5), target))


def redundancy_estimate(t, alpha, delta):
    return mp.mpf(alpha) * t / mp.ln(1 / (2 * mp.mpf(delta) * LN2))


def redundancy_lower(t, delta):
    """(t/tau_D) / ln(1/(delta - e^-t)), or None where t <= ln(2/delta)."""
    t_mp, d_mp = mp.mpf(t), mp.mpf(delta)
    if t_mp <= mp.ln(2 / d_mp):
        return None
    return t_mp / mp.ln(1 / (d_mp - mp.exp(-t_mp)))


# ---------------------------------------------------------------------------
# sky closed forms


def radians(degrees):
    """Exact conversion of a decimal or binary angle in degrees."""
    return mp.radians(mp.mpf(degrees))


@dataclass(frozen=True)
class Disk:
    """A disk region as its scenario file spells it, in degrees."""

    theta0_deg: str
    chi_deg: str

    def _at(self, func):
        """(func at the exact angles, how far the CLI's doubles move it).

        The CLI rounds both angles to doubles and cuts the cap at the
        double cos(theta0); for a small cap that rounding alone moves the
        result by many ulps.
        """
        exact = func(radians(self.theta0_deg), radians(self.chi_deg))
        theta0 = math.radians(float(self.theta0_deg))
        cli = func(mp.acos(mp.mpf(math.cos(theta0))),
                   mp.mpf(math.radians(float(self.chi_deg))))
        return exact, float(abs(exact - cli))

    def rate(self):
        return self._at(disk_rate)

    def alpha(self):
        return self._at(alpha_disk)


def disk_rate(theta0, chi):
    """Disk decoherence rate in full-sky units (disk_rate docstring)."""
    ct = mp.cos(theta0)
    cc2 = mp.cos(chi) ** 2
    return (40 - ct * (51 - 33 * cc2) + ct ** 3 * (11 - 33 * cc2)) / 80


def alpha_disk(theta0, chi):
    """Disk receptivity (alpha_disk docstring)."""
    c = mp.cos(theta0)
    k2 = mp.cos(chi) ** 2
    num = (c + 1) * (-117 * c ** 6 + 295 * c ** 4 - 575 * c ** 2 + 685
                     + 6 * k2 * (21 * c ** 6 - 55 * c ** 4 + 135 * c ** 2 + 75))
    den = 32 * (40 + 11 * c * (1 + c) * (3 * k2 - 1))
    return num / den


def _thermal_y(temperature):
    return BOLTZMANN * mp.mpf(temperature) / (HBAR * SPEED_OF_LIGHT)


def _a_eff(scn):
    eps_r = mp.mpf(scn["permittivity"])
    return mp.mpf(scn["radius_m"]) * mp.cbrt((eps_r - 1) / (eps_r + 2))


def isotropic_rate(scn):
    """(16 8! zeta(9) / 9 pi) a_eff^6 dx^2 (k_B T)^9 / (c^8 hbar^9)."""
    y = _thermal_y(scn["temperature_K"])
    pref = 16 * mp.factorial(8) * ZETA_9 / (9 * mp.pi)
    return (pref * _a_eff(scn) ** 6 * mp.mpf(scn["dx_m"]) ** 2 * y ** 8
            * BOLTZMANN * mp.mpf(scn["temperature_K"]) / HBAR)


def photon_density(temperature):
    """Full-sky thermal photon density 4 pi zeta(3) y^3 / (2 pi^3)."""
    return 4 * mp.pi * ZETA_3 * _thermal_y(temperature) ** 3 / (2 * mp.pi ** 3)


def point_rate(scn, theta):
    """(4 pi/15)(8! zeta(9)/3! zeta(4))(3 + 11 cos^2) I a^6 dx^2 y^5 / (c hbar)."""
    y = _thermal_y(scn["temperature_K"])
    pref = (4 * mp.pi / 15) * mp.factorial(8) * ZETA_9 / (6 * ZETA_4)
    ang = 3 + 11 * mp.cos(theta) ** 2
    return (pref * ang * mp.mpf(scn["irradiance_W_m2"]) * _a_eff(scn) ** 6
            * mp.mpf(scn["dx_m"]) ** 2 * y ** 5 / (SPEED_OF_LIGHT * HBAR))


def grid_rate_ratio(u, phi, mask):
    """Riemann sum of (3 + 11 u^2) over the masked cells, in full-sky units."""
    du = 2.0 / u.size
    dphi = 2.0 * math.pi / phi.size
    per_row = mask.sum(axis=1) * (3.0 + 11.0 * u ** 2)
    return math.fsum(per_row.tolist()) * du * dphi * 3.0 / (80.0 * math.pi)


def _moments(pts, w):
    """Scalar and tensor moments of a = n_z over a weighted node set."""
    a = pts[:, 2]
    s = np.array([math.fsum((w * a ** k).tolist()) for k in range(3)])
    t = np.array([np.einsum("n,ni,nj->ij", w * a ** k, pts, pts)
                  for k in range(3)])
    return s, t


def _pair(m1, m2):
    """Double integral of (1 + (n.m)^2)(a_n - a_m)^2 over two node sets."""
    (s1, t1), (s2, t2) = m1, m2
    scalar = s1[2] * s2[0] - 2.0 * s1[1] * s2[1] + s1[0] * s2[2]
    tensor = np.sum(t1[2] * t2[0]) - 2.0 * np.sum(t1[1] * t2[1]) \
        + np.sum(t1[0] * t2[2])
    return float(scalar + tensor)


def grid_alpha(u, phi, mask):
    """Receptivity of an indicator grid: int_B int_Bbar g2 / int_B int_S g2.

    Cell-centre nodes with the designed cell area; the numerator pairs the
    region with its complement directly instead of by subtraction.
    """
    uu, pp = np.meshgrid(u, phi, indexing="ij")
    s = np.sqrt(np.clip(1.0 - uu ** 2, 0.0, None))
    pts = np.stack([s * np.cos(pp), s * np.sin(pp), uu], axis=-1)
    area = (2.0 / u.size) * (2.0 * math.pi / phi.size)
    inside = _moments(pts[mask], np.full(int(mask.sum()), area))
    outside = _moments(pts[~mask], np.full(int((~mask).sum()), area))
    num = _pair(inside, outside)
    return num / (num + _pair(inside, inside))


# ---------------------------------------------------------------------------
# parsing CLI output


def num(text):
    """A CSV cell: None for the empty missing-value marker."""
    return None if text == "" else float(text)


def parse_pip(out, fmt):
    """[(t, [f...], [mi...])] plus the JSON alpha (None for CSV)."""
    if fmt == "json":
        payload = json.loads(out)
        return [(b["t_over_tauD"], b["f"], b["mi_nats"])
                for b in payload["blocks"]], payload["alpha"]
    blocks = []
    for chunk in out.strip("\n").split("\n\n"):
        lines = chunk.split("\n")
        t = float(lines[0].split("=")[1])
        rows = [line.split(",") for line in lines[2:]]
        blocks.append((t, [float(r[0]) for r in rows],
                       [float(r[1]) for r in rows]))
    return blocks, None


def parse_redundancy(out, fmt):
    """[(t, R_exact, R_estimate, R_lower)] with None for missing."""
    if fmt == "json":
        return [(r["t_over_tauD"], r["R_exact"], r["R_estimate"], r["R_lower"])
                for r in json.loads(out)]
    lines = out.strip("\n").split("\n")[1:]
    return [tuple(num(c) for c in line.split(",")) for line in lines]


def parse_sweep(out, fmt):
    """[(x, y)] with y None where the quantity is undefined."""
    if fmt == "json":
        return [tuple(p) for p in json.loads(out)["points"]]
    lines = out.strip("\n").split("\n")[1:]
    return [tuple(num(c) for c in line.split(",")) for line in lines]
