"""Output checks, computed apart from the program.

Each check returns a list of failure messages; an empty list is a pass.
Nothing here imports mhrnet: constants come from the paper's formulas,
norms and gaps from numpy, rates from a closed-form least-squares line.
"""

import json
import math
from pathlib import Path

import numpy as np

COMPONENT_COLUMNS = (("u%d_l2", 2), ("v%d_l2", 2), ("w%d_l2", 2), ("rho%d_l4", 4))
# the program's rate-fit rule: drop the leading 30% of samples, stop at the
# first gap below 1e-20, need 40 samples in all and 20 in the window
TRANSIENT_FRACTION = 0.3
GAP_FLOOR = 1e-20
MIN_SAMPLES = 40
MIN_WINDOW = 20


def state_array(net):
    """The network state as one (m, 4, *cells) array, whatever its layout.

    Reads today's list of neurons, and also a state kept as one array, so
    the checks outlive a change of the program's state representation.
    """
    neurons = getattr(net, "neurons", None)
    if isinstance(neurons, (list, tuple)):
        return np.array([[s.u, s.v, s.w, s.rho] for s in neurons], dtype=float)
    for value in vars(net).values():
        if isinstance(value, np.ndarray) and value.ndim >= 3 and value.shape[1] == 4:
            return np.array(value, dtype=float)
    raise TypeError("cannot read a (m, 4, *cells) state from %r" % type(net).__name__)


def paper_constants(p, measure):
    """C1, the envelope rate and asymptote, and Pmin from the paper's formulas."""
    a, b, r, k1, k2 = p["a"], p["b"], p["r"], p["k1"], p["k2"]
    beta, delta, gamma, q = p["beta"], p["delta"], p["gamma"], p["q"]
    C1 = (beta ** 2 / 2.0 + 1.0 / (2.0 * k2 ** 3) + 4.0) / b
    lam = 0.5 * min(1.0, r, k2)
    C2 = 0.25 * (C1 * k1 * (abs(p["c"]) + gamma ** 2 / delta) + 0.25) ** 2
    M = p["m"] * (
        C2 + (C1 * a) ** 4 + C1 * p["Je"] ** 2 + (C1 ** 2 * (2.0 + 1.0 / r) + C1) ** 2
        + 2.0 * p["alpha"] ** 2 + q ** 2 * p["ue"] ** 2 / r + q ** 4 / r ** 2
    )
    Cmult = 8.0 * beta ** 2 / b
    Pmin = (
        4.0 * a ** 2 / b + Cmult * (1.0 + 1.0 / r) + (1.0 + q ** 2 / r) / (2.0 * Cmult)
        + k1 * (abs(p["c"]) + gamma ** 2 / (4.0 * delta))
    ) / p["m"]
    return {
        "C1": C1,
        "lam": lam,
        "asymptote": M * measure / (lam * min(C1, 1.0)),
        "prefactor": max(C1, 1.0) / min(C1, 1.0),
        "Pmin": Pmin,
    }


def read_timeseries(path):
    """(header, data) of a timeseries CSV; data has one row per sample."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def close(name, got, want, rtol):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    err = np.abs(got - want)
    bad = ~(err <= rtol * np.maximum(np.abs(got), np.abs(want)))
    if np.any(bad):
        k = int(np.argmax(bad))
        return ["%s: %r differs from %r beyond rtol %g"
                % (name, float(got.flat[k]), float(want.flat[k]), rtol)]
    return []


def check_sample_times(data, dt, observe_every, n_steps):
    """One row at t=0, one per observation interval, and one at the last step."""
    steps = list(range(0, n_steps + 1, observe_every))
    if steps[-1] != n_steps:
        steps.append(n_steps)
    if data.shape[0] != len(steps):
        return ["timeseries has %d rows, expected %d" % (data.shape[0], len(steps))]
    return close("sample times", data[:, 0], np.array(steps) * dt, 1e-12)


def check_reference(x_program, x_reference, rtol):
    """The program's state against the reference stepper's, per component."""
    out = []
    for k, name in enumerate(("u", "v", "w", "rho")):
        a, b = x_program[:, k], x_reference[:, k]
        scale = float(np.max(np.abs(b)))
        err = float(np.max(np.abs(a - b)))
        if not err <= rtol * scale:
            out.append("state %s after the first interval is off the reference by "
                       "%.3g (scale %.3g, rtol %g)" % (name, err, scale, rtol))
    return out


def check_last_row(header, data, x, cell_volume, rtol=1e-10):
    """Norms and gaps of the last row, recomputed from the final state x."""
    row = dict(zip(header, data[-1]))
    m = x.shape[0]
    flat = x.reshape(m, 4, -1)
    out = []
    if "u1_l2" in row:
        want = np.concatenate([
            np.sqrt(np.sum(flat[:, :3] ** 2, axis=2) * cell_volume),
            np.sum(flat[:, 3:] ** 4, axis=2) ** 0.25 * cell_volume ** 0.25,
        ], axis=1)
        got = [[row[col % (i + 1)] for col, _ in COMPONENT_COLUMNS] for i in range(m)]
        out += close("last-row norms", got, want, rtol)
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    gaps = np.array([np.sum((flat[i] - flat[j]) ** 2) * cell_volume for i, j in pairs])
    if "gap_1_2" in row:
        got = [row["gap_%d_%d" % (i + 1, j + 1)] for i, j in pairs]
        out += close("last-row gaps", got, gaps, rtol)
    elif "gap_max" in row:
        out += close("last-row gap summary", [row["gap_max"], row["gap_mean"]],
                      [gaps.max(), gaps.mean()], rtol)
    return out


def norm_powers(header, data, m):
    """Per-sample sums of ||u||^2, ||v||^2 + ||w||^2 + ||rho||_L4^4 over neurons."""
    u2 = sum(data[:, header.index("u%d_l2" % (i + 1))] ** 2 for i in range(m))
    rest = sum(
        data[:, header.index(col % (i + 1))] ** power
        for i in range(m) for col, power in COMPONENT_COLUMNS[1:]
    )
    return u2, rest


def check_energy(header, data, m, C1, rtol=1e-12):
    """energy = sum_i (C1 ||u||^2 + ||v||^2 + ||w||^2 + ||rho||_L4^4)."""
    u2, rest = norm_powers(header, data, m)
    return close("energy column", data[:, header.index("energy")], C1 * u2 + rest, rtol)


def check_envelope(header, data, m, consts):
    """The quasi-norm series stays under the Gronwall envelope."""
    u2, rest = norm_powers(header, data, m)
    y = u2 + rest
    t = data[:, 0]
    env = consts["prefactor"] * np.exp(-consts["lam"] * (t - t[0])) * y[0] + consts["asymptote"]
    over = np.nonzero(y > env)[0]
    if over.size:
        k = int(over[0])
        return ["quasi-norm %.6g exceeds the envelope %.6g at t=%g" % (y[k], env[k], t[k])]
    return []


def fit_rate(t, gaps):
    """Decay rate of one gap series by the program's windowing rule, or None."""
    if np.all(gaps == 0.0) or t.size < MIN_SAMPLES:
        return None
    gaps = np.maximum(gaps, 1e-300)
    start = int(math.floor(TRANSIENT_FRACTION * t.size))
    below = np.nonzero(gaps[start:] < GAP_FLOOR)[0]
    end = start + below[0] if below.size else t.size
    if end - start < MIN_WINDOW:
        return None
    tw, y = t[start:end], np.log(gaps[start:end])
    dt = tw - tw.mean()
    slope = float(np.dot(dt, y - y.mean()) / np.dot(dt, dt))
    return -slope if slope < 0 else 0.0


def run_rate(header, data, m):
    """Median of the per-pair rates of one run, or None when none was fitted."""
    rates = []
    for i in range(m):
        for j in range(i + 1, m):
            col = "gap_%d_%d" % (i + 1, j + 1)
            if col in header:
                rate = fit_rate(data[:, 0], data[:, header.index(col)])
                if rate is not None:
                    rates.append(rate)
    return float(np.median(rates)) if rates else None


def cell_reports(cells_dir):
    """{(P, Q, seed): label prefix} from the per-cell reports of a sweep."""
    found = {}
    for path in sorted(Path(cells_dir).glob("*_report.json")):
        with open(path) as fh:
            spec = json.load(fh)["spec"]
        key = (spec["parameters"]["P"], spec["parameters"]["Q"], spec["seed"])
        found[key] = str(path)[: -len("_report.json")]
    return found


def check_sweep(report, cells_dir, sweep, m, rtol=1e-9):
    """Every cell ran, and each cell's median rate matches a refit of its CSVs."""
    out = []
    want = [(P, Q, s) for P in sweep["P"] for Q in sweep["Q"] for s in sweep["seeds"]]
    found = cell_reports(cells_dir)
    missing = [key for key in want if key not in found]
    if missing or len(found) != len(want):
        return ["sweep wrote %d cell reports for %d runs; missing %s"
                % (len(found), len(want), missing)]
    cells = {(c["P"], c["Q"]): c for c in report["cells"]}
    for P in sweep["P"]:
        for Q in sweep["Q"]:
            cell = cells.get((P, Q))
            if cell is None:
                out.append("sweep report has no cell P=%r Q=%r" % (P, Q))
                continue
            errors = [run["error"] for run in cell["runs"] if "error" in run]
            if errors:
                out.append("cell P=%r Q=%r failed: %s" % (P, Q, errors))
                continue
            rates = []
            for seed in sweep["seeds"]:
                header, data = read_timeseries(found[(P, Q, seed)] + "_timeseries.csv")
                rate = run_rate(header, data, m)
                if rate is not None:
                    rates.append(rate)
            if not rates:
                out.append("cell P=%r Q=%r: no rate could be refitted" % (P, Q))
            elif cell["median_rate"] is None:
                out.append("cell P=%r Q=%r reports no median_rate" % (P, Q))
            else:
                out += close("median_rate of cell P=%r Q=%r" % (P, Q),
                              cell["median_rate"], np.median(rates), rtol)
    return out


def check_timeseries(header, data, m, consts):
    """Energy column and envelope property of one timeseries."""
    return check_energy(header, data, m, consts["C1"]) + check_envelope(header, data, m, consts)
