"""Golden digests of seeded outputs.

Each test recomputes an output the package writes or returns and compares
its sha256 with a digest recorded from the code that preceded a rewrite:
the recursive AST interpreter that preceded the compiled expression tape,
and the sort-based fractal sweeps that preceded the linear ones.  A change
to expression evaluation, the oracles, the ridge loop or the fractal
diagnostics that moves a single byte of a trajectory, report, certificate,
subdifferential sample or fractal CSV fails here.
"""

import hashlib
import json
import random

import numpy as np
import pytest

from ridgeopt import cli, expr, oracles, problems, ridge


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# trajectory.jsonl + report.json of short seeded runs
# ---------------------------------------------------------------------------

# (problem, oracle mode, x0, iterations): two-decimal starts, as typed on the
# command line.  The envelope_gap grid run from 1/3 aborts on an empty PO
# sample and still writes its partial trajectory.
RUNS = {
    ("smooth_saddle", "grid", "1.37", 6):
        "0:91254ee9d84a434d10eca05550cac6743fbb6b59a6f944ead560e352dfa584fb",
    ("convex_hull_necessary", "grid", "0.71", 6):
        "0:516a01b6adc221fb61816893064d11393b53cda9734a1af4e0eb13d9d7467894",
    ("convex_hull_necessary", "grid", "-1.46", 4):
        "0:007d5ec8d8553987feb2c5965bc96312576b9d252f3a75ef198f5b8d88379d81",
    ("envelope_gap", "grid", "0.25", 4):
        "0:229b813873c33651223504a6393db66adcc4bded3bf7383c0488891beef2fcbb",
    ("envelope_gap", "grid", "0.3333333333333333", 3):
        "2:43ce69fd8c941cd065c932afc379406e9df2610772e3003d4518aefe293ed9bc",
    ("po_failure", "grid", "0.52", 4):
        "0:2e3d9b9968f215fe683d8238007908e1979a1b721f9bfb7c9a691cdcebb491bd",
    ("smooth_saddle", "registry", "1.37", 40):
        "0:eaeca3149376fba74842813caf1bcde18b287163976376c522f7ec81e8096a53",
    ("convex_hull_necessary", "registry", "0.71", 40):
        "0:6730ee1742279e3ed1b69099fbe7f651d4b209ee3bf8fe93b9926a6190e3b4b0",
    ("envelope_gap", "registry", "0.25", 40):
        "0:d34ad72fa3babe38bd82b3b4e0bf825a2a5456e844b7bf362e2b9230cb038633",
    ("po_failure", "registry", "-0.38", 40):
        "0:cea4baaa143e295c0249b935a9e8fa38f273caa184b1d164e8cc095aa5f653c0",
}


def run_digest(out_dir, problem, mode, x0, iters) -> str:
    code = cli.main(["run", "--problem", problem, "--x0", x0, "--iters",
                     str(iters), "--oracle-mode", mode, "--seed", "7",
                     "--atom-rule", "random", "--out", str(out_dir)])
    traj = (out_dir / "trajectory.jsonl").read_bytes()
    report = (out_dir / "report.json").read_bytes()
    return f"{code}:{_sha(traj + b'|' + report)}"


@pytest.mark.parametrize("case", sorted(RUNS))
def test_run_outputs(tmp_path, case):
    assert run_digest(tmp_path, *case) == RUNS[case]


# ---------------------------------------------------------------------------
# certificate.json
# ---------------------------------------------------------------------------

CERTIFY = {
    ("smooth_saddle", "grid", "0"):
        "0:b55fd685d236f97de2eac39aac7184906377d01651a9696ab82fa277356a7665",
    ("convex_hull_necessary", "grid", "0"):
        "0:a008d9deeff87f33f5d17dc9eab9f51ee2ad6ff9dd919d8e7a9045a1ebcf8d50",
    ("convex_hull_necessary", "registry", "0.5"):
        "1:d08816dd2ff8f91a21eb050a32cbeb9ebc81ad33aedc0cda7f61d78d3c18685c",
    ("envelope_gap", "grid", "0.75"):
        "0:67e26950a65610d3a24d71e5c2803d0381be9631f33238896fc5c62744efd481",
    ("po_failure", "grid", "0"):
        "0:f71a8dfd3c4d8f06971ceda063cef2062c363948734b6eed1d5500185b3c6eb6",
}


def certify_digest(out_dir, problem, mode, x0) -> str:
    code = cli.main(["certify", "--problem", problem, "--x0", x0,
                     "--oracle-mode", mode, "--out", str(out_dir)])
    return f"{code}:{_sha((out_dir / 'certificate.json').read_bytes())}"


@pytest.mark.parametrize("case", sorted(CERTIFY))
def test_certificate(tmp_path, case):
    assert certify_digest(tmp_path, *case) == CERTIFY[case]


# p = 3, one y: at xbar = (0.5, 0.5, 0.5) and y = 0.25 five kinks are active,
# the PO sample has 16 atoms and the witness needs p + 1 = 4 of them
WIDE_TEXT = ("abs(x0 - 0.5) + abs(x1 - x2) + max(x0 - x2, x1 - 0.5)"
             " - abs(y0 - 0.25) - abs(y0 - x0 + 0.25)*0.5 + min(x2, 0.5)*y0"
             " - pow(y0 - 0.25, 2)")
WIDE_POINTS = {
    (0.5, 0.5, 0.5):
        "9561380809dabb2dbd0f831ab612ca4bf61823bbd11cb74c2028cdbee4cb7582",
    (0.5, 0.25, 0.75):
        "4d42bc49d891e2102534020dbd1c6142c627338afee70aaa7ce6a938ac04b241",
}


def wide_certificate_digest(xbar) -> str:
    spec = problems.ProblemSpec(
        id="wide3", prog=expr.parse(WIDE_TEXT, 3, 1),
        box=oracles.YBox(np.array([-1.0]), np.array([1.0])))
    cert = ridge.certify_po_critical(spec, list(xbar),
                                     ridge.OracleSettings(mode="grid"))
    payload = {"problem": spec.id, **cert.to_dict()}
    return _sha(json.dumps(payload, indent=2).encode())


@pytest.mark.parametrize("xbar", sorted(WIDE_POINTS))
def test_wide_certificate(xbar):
    assert wide_certificate_digest(xbar) == WIDE_POINTS[xbar]


# ---------------------------------------------------------------------------
# subdiff_sample: element bytes and branch ids
# ---------------------------------------------------------------------------

# (text, dim_x, dim_y): min, max, pow, signed-zero constants, 2-decimal kinks
PROGRAMS = [
    ("max(x0*y0, -0*y1) - min(pow(y0, 3), y1 - 0.25) + abs(y1 + -0)", 1, 2),
    ("abs(y0 - 0) + abs(y0 - -0) + max(0, -0*x0) - min(-0, y0*x0)", 1, 1),
    ("-abs(y0 - 0.29) - 2*abs(x0 - 0.07) + min(y0 - 0.29, x0 - 0.07)"
     " + max(pow(x0 - 0.07, 2), y0 - 0.29)", 1, 1),
    ("abs(x0 - y1) + abs(x1 - y0) + abs(y0 + y1) + max(x0, x1)"
     " - min(y0, -y1) + pow(abs(x0 - x1), 3)", 2, 2),
]
POINTS = {
    0: [([0.0], [0.0, 0.25]), ([-0.0], [-0.0, 0.0]), ([0.5], [0.5, 0.375])],
    1: [([0.0], [0.0]), ([-0.0], [-0.0]), ([1.5], [-0.0])],
    2: [([0.07], [0.29]), ([0.07], [0.3]), ([0.08], [0.29])],
    3: [([0.0, 0.0], [0.0, 0.0]), ([0.5, -0.0], [-0.5, 0.5]),
        ([0.25, 0.25], [0.25, -0.25])],
}
SUBDIFF = {
    0: "95d3f7b4ec4e95d13508a12ee680d6783337a7ab6dd92585c98c4c6641368002",
    1: "dbab54fbff5d726dc9d46804e41ffc5472c1fb44c8fd18ddfad8612d268658c3",
    2: "dd95789019625a814f36d8fdd04bbbce1db0088dc0dce42eb41ccdf91adb9d72",
    3: "38f63244d561163085e2b4d28344ddbfde97e043554375b3c633ee66560d1dcb",
}


def subdiff_digest(i) -> str:
    text, p, r = PROGRAMS[i]
    prog = expr.parse(text, p, r)
    h = hashlib.sha256()
    for x, y in POINTS[i]:
        for max_branches, eps_kink in ((64, 0.0), (4, 0.0), (64, 1e-9)):
            ss = expr.subdiff_sample(prog, x, y, max_branches, eps_kink)
            h.update(b"incomplete" if ss.incomplete else b"complete")
            for el in ss:
                h.update(el.u.tobytes() + el.v.tobytes()
                         + el.branch_id.encode() + b"|")
    return h.hexdigest()


@pytest.mark.parametrize("i", sorted(SUBDIFF))
def test_subdiff_sample(i):
    assert subdiff_digest(i) == SUBDIFF[i]


# ---------------------------------------------------------------------------
# ridgeopt fractal CSVs
# ---------------------------------------------------------------------------

FRACTAL_CSVS = {
    "po.csv":
        "358f3253e18886d0869fb013b93f837b76d399043210d37c62eef41e472331ed",
    "probes.csv":
        "0a68db77f6dbb40673da77a9e37e58cdc053ff269fd8afe9e0111582ab8145e0",
    "projections.csv":
        "6eb03ad08fa9cdb1e78c1156fd38c4fbb49ac6e926d5e91f860e94ef2e254f23",
    "tv.csv":
        "6c9efa0ff0d0c7c71a3baed500c353aebff10b9590f88d9908eafe8da189616c",
}


def test_fractal_csvs(tmp_path):
    code = cli.main(["fractal", "--depth-min", "0", "--depth-max", "10",
                     "--out", str(tmp_path)])
    assert code == 0
    digests = {name: _sha((tmp_path / name).read_bytes())
               for name in FRACTAL_CSVS}
    assert digests == FRACTAL_CSVS


# ---------------------------------------------------------------------------
# Compilation: printed text, lowered tape and kink slots of random programs
# ---------------------------------------------------------------------------

# constant spellings: signed zeros, overflow to +-inf, parenthesized literals
CONST_TEXTS = ("0", "-0", "(-0)", "-(0)", "0.0", "2", "-(2)", "(2)", "0.5",
               "-2.5", "3.25", "1e999", "-1e999", "(-1e999)", "1e-3", "7")


def random_dsl(rng, depth, p, r, pool):
    """A random DSL text over x0..x{p-1}, y0..y{r-1}; ``pool`` holds earlier
    subexpressions, which reappear verbatim."""
    if pool and rng.random() < 0.2:
        return rng.choice(pool)
    if depth == 0 or (pool and rng.random() < 0.15):
        roll = rng.random()
        if roll < 0.4:
            text = rng.choice(CONST_TEXTS)
        elif roll < 0.7:
            text = f"x{rng.randrange(p)}"
        else:
            text = f"y{rng.randrange(r)}"
    else:
        kind = rng.choice(("neg", "add", "sub", "mul", "pow", "abs", "min",
                           "max", "paren"))
        a = random_dsl(rng, depth - 1, p, r, pool)
        if kind == "neg":
            text = f"-({a})" if a.startswith("-") or rng.random() < 0.5 else f"-{a}"
        elif kind == "paren":
            text = f"({a})"
        elif kind == "pow":
            text = f"pow({a}, {rng.randint(1, 4)})"
        elif kind == "abs":
            text = f"abs({a})"
        else:
            b = random_dsl(rng, depth - 1, p, r, pool)
            if kind in ("min", "max"):
                text = f"{kind}({a}, {b})"
            else:
                text = a + {"add": " + ", "sub": " - ", "mul": "*"}[kind] + b
    pool.append(text)
    return text


COMPILE_DIGEST = "0a00ac831b921859d8731426cb830352a7423a5ed1144ab5eb40351b3fd91d52"


def compile_digest(n=500) -> str:
    h = hashlib.sha256()
    for seed in range(n):
        rng = random.Random(seed)
        p, r = 1 + seed % 2, 1 + (seed // 2) % 2
        prog = expr.parse(random_dsl(rng, 5, p, r, []), p, r)
        h.update(repr((str(prog), prog.lowered[0], prog.lowered[1])).encode())
    return h.hexdigest()


def test_expr_compile_digest():
    assert compile_digest() == COMPILE_DIGEST


def test_random_programs_round_trip_through_text():
    for seed in range(500):
        rng = random.Random(seed)
        p, r = 1 + seed % 2, 1 + (seed // 2) % 2
        prog = expr.parse(random_dsl(rng, 5, p, r, []), p, r)
        assert expr.parse(str(prog), p, r) == prog, seed
