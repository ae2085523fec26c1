"""Seeded request lists for the three workloads.

Every request of ``bound_mix`` and ``simulate_mix`` is a member of a fixed
pool: member ``i`` of pool ``p`` is a pure function of (MASTER_SEED, p, i),
generated here with numpy only, so the inputs do not depend on the version
of capdetect under test. ``pools.json`` stores, for every member, the cost
of its request at the commit the benchmark was defined on: its wall time in
a warmed process (``make_pools.py`` measures it).

A pass draws n members from a pool of size P by stratified sampling on that
ranking: n strata of P/n members each and one member per stratum, so the
slow tail appears at its natural frequency. The seed picks that member from
the CENTRAL_CHOICES members nearest the stratum's mean cost. The cost is so
heavy-tailed (a few members run to ``max_iter``) that members of one
stratum can differ severalfold, and a uniform pick within strata moved the
median request by 11% and the p75 request by 28% across seeds at the seed
commit. A stratum whose members' costs differ by more than
FIXED_STRATUM_SHARE of the pass's expected cost is represented by its
member nearest the mean on every seed: these tail strata decide the pass
time, and drawing them moved it by 15-30% from seed to seed.

``simulate_mix`` draws only from the members that cost at most
SIMULATE_MAX_COST_S. The members above it, 84% of the pools' total cost
but 15% of their members, took up to 18 s each; with them a pass took
29 s, so a run could time each request only once, and single timings on a
shared machine spread by 20-40%. ``bound_mix`` keeps its slowest members.
"""

import json
import math
from pathlib import Path

import numpy as np

MASTER_SEED = 20190805
HERE = Path(__file__).resolve().parent

FIGURES = ("fig1", "fig2", "fig3", "fig4", "suppl_stretched")
QUBIT_ZOO = ("gad", "stretched", "dephasing_axis", "pauli", "rotated_pauli", "extremal")
SHOTS = (500, 5_000, 100_000, 1_000_000)

# pool name -> (pool size, requests drawn per pass)
BOUND_POOLS = {
    "kraus_d2": (500, 50),
    "kraus_d3": (120, 12),
    "kraus_d5": (120, 12),
    **{f"zoo_{k}": (30, 3) for k in QUBIT_ZOO + ("affine_qubit", "generalized_pauli", "vshape_qutrit")},
}
SIMULATE_POOLS = {f"sim_{shots}": (140, 10) for shots in SHOTS}
SIM_KINDS = QUBIT_ZOO + ("vshape_qutrit",)
SIMULATE_MAX_COST_S = 1.0
FIXED_STRATUM_SHARE = 0.01
CENTRAL_CHOICES = 3


def _rng(*key) -> np.random.Generator:
    return np.random.default_rng([MASTER_SEED, *key])


def _pool_key(name: str) -> int:
    # a stable integer per pool name (str hash is salted per process)
    return int.from_bytes(name.encode(), "little") % (2**63)


def _cells(m: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in m.reshape(-1)]


def random_kraus_spec(d: int, rank: int, rng: np.random.Generator) -> dict:
    """Kraus spec of a random CPTP channel: an isometry from the QR
    factorization of a complex Gaussian (d*rank, d) block."""
    g = rng.standard_normal((d * rank, d)) + 1j * rng.standard_normal((d * rank, d))
    q, _ = np.linalg.qr(g)
    ops = [_cells(q[i * d:(i + 1) * d, :]) for i in range(rank)]
    return {"kind": "kraus", "params": {"dim": d, "operators": ops}}


def zoo_spec(kind: str, rng: np.random.Generator, index: int = 0) -> dict:
    """Spec of a named zoo channel with parameters drawn over their whole
    valid range."""
    u = rng.uniform
    if kind == "gad":
        p = {"gamma": u(0, 1), "p": u(0, 1)}
    elif kind == "stretched":
        g = u(0, 1)
        p = {"gamma": g, "s": u(-1, 1) * math.sqrt(1 - g)}
    elif kind == "extremal":
        a, b = sorted(u(0, math.pi / 2, 2))
        p = {"alpha": float(a), "beta": float(b)}
    elif kind == "dephasing_axis":
        p = {"p": u(0, 1), "theta": u(0, math.pi / 2), "phi": u(0, 2 * math.pi)}
    elif kind == "pauli":
        w = rng.dirichlet(np.ones(4))
        p = {"px": float(w[0]), "py": float(w[1]), "pz": float(w[2])}
    elif kind == "rotated_pauli":
        w = rng.dirichlet(np.ones(4))
        p = {"px": float(w[0]), "py": float(w[1]), "pz": float(w[2]), "phi": u(-math.pi, math.pi)}
    elif kind == "vshape_qutrit":
        p = {"gamma01": u(0, 1), "gamma02": u(0, 1)}
    elif kind == "generalized_pauli":
        d = 3 if index % 2 == 0 else 5
        q = rng.dirichlet(np.ones(d * d)).reshape(d, d)
        p = {"dim": d, "q": q.tolist()}
    elif kind == "affine_qubit":
        while True:  # rejection sampling of the complete-positivity region
            l1, l2, l3, t3 = u(-1, 1, 4)
            if min((1 + l3) ** 2 - t3**2 - (l1 + l2) ** 2,
                   (1 - l3) ** 2 - t3**2 - (l1 - l2) ** 2) > 1e-9:
                break
        p = {"lambda1": float(l1), "lambda2": float(l2), "lambda3": float(l3), "t3": float(t3)}
    else:
        raise ValueError(f"no generator for kind {kind!r}")
    return {"kind": kind, "params": {k: (float(v) if isinstance(v, float) else v) for k, v in p.items()}}


def bases_for(spec: dict) -> str:
    kind = spec["kind"]
    if kind in ("vshape_qutrit", "generalized_pauli"):
        return "weyl"
    if kind == "kraus" and spec["params"]["dim"] != 2:
        return "weyl"
    return "pauli"


def pool_member(pool: str, index: int) -> dict:
    """Request of member ``index`` of ``pool``: a channel spec plus the
    command and its options."""
    rng = _rng(_pool_key(pool), index)
    if pool.startswith("kraus_d"):
        d = int(pool[len("kraus_d"):])
        spec = random_kraus_spec(d, 2 + index % 3, rng)
        return {"command": "bound", "spec": spec, "bases": bases_for(spec)}
    if pool.startswith("zoo_"):
        spec = zoo_spec(pool[len("zoo_"):], rng, index)
        return {"command": "bound", "spec": spec, "bases": bases_for(spec)}
    if pool.startswith("sim_"):
        kind = SIM_KINDS[index % len(SIM_KINDS)]
        spec = zoo_spec(kind, rng, index)
        return {
            "command": "simulate",
            "spec": spec,
            "bases": bases_for(spec),
            "shots": int(pool[len("sim_"):]),
            "resamples": 200 if (index // len(SIM_KINDS)) % 2 == 0 else 1000,
            "seed": int(rng.integers(0, 2**63)),
        }
    raise ValueError(f"unknown pool {pool!r}")


def load_pool_costs() -> dict:
    with open(HERE / "pools.json") as f:
        return json.load(f)["cost_s"]


def _strata(costs, n: int, max_cost: float) -> list:
    eligible = [i for i in range(len(costs)) if costs[i] <= max_cost]
    order = sorted(eligible, key=lambda i: (costs[i], i))
    return [list(map(int, s)) for s in np.array_split(np.array(order), n)]


def request_list(workload: str, seed: int) -> list:
    """The fixed request list of one pass of ``workload`` for ``seed``."""
    rng = np.random.default_rng([seed, _pool_key(workload)])
    if workload == "figures":
        return [{"command": "reproduce", "figure": str(f)} for f in rng.permutation(FIGURES)]
    pools = {"bound_mix": BOUND_POOLS, "simulate_mix": SIMULATE_POOLS}.get(workload)
    if pools is None:
        raise ValueError(f"unknown workload {workload!r}")
    costs = load_pool_costs()
    max_cost = SIMULATE_MAX_COST_S if workload == "simulate_mix" else math.inf
    strata = {}
    for pool, (size, n) in pools.items():
        if len(costs[pool]) != size:
            raise ValueError(f"pools.json has {len(costs[pool])} members for {pool}, expected {size}")
        strata[pool] = _strata(costs[pool], n, max_cost)
    expected = sum(float(np.mean([costs[p][i] for i in s])) for p in strata for s in strata[p])
    requests = []
    for pool, pool_strata in strata.items():
        c = costs[pool]
        for s in pool_strata:
            cs = [c[i] for i in s]
            mean = float(np.mean(cs))
            central = sorted(s, key=lambda j: (abs(c[j] - mean), j))[:CENTRAL_CHOICES]
            if max(cs) - min(cs) > FIXED_STRATUM_SHARE * expected:
                i = central[0]
            else:
                i = central[rng.integers(len(central))]
            requests.append({"pool": pool, "member": i, **pool_member(pool, i)})
    return [requests[i] for i in rng.permutation(len(requests))]


_WARMUP_GRIDS = {
    "fig1": ["gamma=0:1:0.5"],
    "fig2": ["gamma01=0:1:0.5", "gamma02=0:1:0.5"],
    "fig3": ["theta=0:1.5:0.5", "phi=0:6:1"],
    "fig4": ["k=0:1:0.5"],
    "suppl_stretched": ["s=-0.5:0.5:0.5"],
}


def warmup_requests(workload: str) -> list:
    """Small requests of every kind the workload sends, run before timing
    starts so that lazy imports and first-call costs are paid; the first
    one is also the set-up request."""
    if workload == "figures":
        return [{"command": "reproduce", "figure": f, "grid": g} for f, g in _WARMUP_GRIDS.items()]
    gad = {"kind": "gad", "params": {"gamma": 0.3, "p": 0.8}}
    vshape = {"kind": "vshape_qutrit", "params": {"gamma01": 0.3, "gamma02": 0.6}}
    if workload == "bound_mix":
        return [{"command": "bound", "spec": gad, "bases": "pauli"},
                {"command": "bound", "spec": vshape, "bases": "weyl"},
                pool_member("kraus_d5", 0)]
    return [{"command": "simulate", "spec": s, "bases": b, "shots": 1000, "resamples": 100, "seed": 7}
            for s, b in ((gad, "pauli"), (vshape, "weyl"))]


def argv_for(request: dict, workdir: Path, tag: str) -> tuple:
    """CLI argv for a request; writes its spec file. Returns (argv, out path)."""
    out = workdir / f"{tag}.out"
    if request["command"] == "reproduce":
        argv = ["reproduce", request["figure"], "--out", str(out)]
        for g in request.get("grid", ()):
            argv += ["--grid", g]
        return argv, out
    spec_path = workdir / f"{tag}.spec.json"
    spec_path.write_text(json.dumps(request["spec"]))
    argv = [request["command"], "--channel", str(spec_path), "--bases", request["bases"],
            "--out", str(out)]
    if request["command"] == "simulate":
        argv += ["--shots", str(request["shots"]), "--seed", str(request["seed"]),
                 "--resamples", str(request["resamples"])]
    return argv, out
