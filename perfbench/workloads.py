"""The four workloads: inputs built from a seed, one timed pass, checks.

Every call into genimm goes through a module or class attribute looked up
at call time (``numtopo.solve_self_intersection``, ``fam.ambient_eval``),
so the tracer's rebinding sees it.  Each pass returns the items it
certified, one per answer, with the reason an item failed; an item that
raises is a failed item and the pass goes on.  See README.md for why each
workload exists.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from genimm import cli, config, geometry, invariants, numtopo, qform, strata, \
    surfaces

GOLDENS = Path(__file__).resolve().parent / "goldens.json"


@dataclass
class PassResult:
    """What one pass certified.

    items: (label, failure reason or None), one per answer.
    fingerprint: integers and report text that must not depend on tracing.
    facts: span statistic -> the value the returned results carry.
    """

    items: list = field(default_factory=list)
    fingerprint: list = field(default_factory=list)
    facts: dict = field(default_factory=dict)

    def check(self, label, fn):
        """Run one item; fn returns None when the answer is right."""
        try:
            reason = fn()
        except Exception as exc:  # a raising engine is a failed item
            traceback.print_exc(file=sys.stderr)
            reason = f"raised {type(exc).__name__}: {exc}"
        self.items.append((label, reason))


def _write_config(path: Path, seed: int):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(f"seed = {seed}\n", encoding="utf-8")
    return config.load(str(path))


# ---------------------------------------------------------------------------
# table_numeric


class TableNumeric:
    name = "table_numeric"
    # One member: the whole 1/2..1 range takes 50-60 s on a 2-core box,
    # more than one run may take when four workloads share the benchmark's
    # time budget.
    m_range = "1/2..1/2"
    # The config seed moves the linking engine's apex and sample choice,
    # and with them its cost (23.3-31.0 s over seeds 0-4); a per-run seed
    # would read as run-to-run spread, so the paper's seed is pinned.
    config_seed = 7
    spans = ("numtopo.link_1cycle_3manifold", "numtopo.gauss_link",
             "numtopo.spherical_cone_link", "numtopo.degree_S3",
             "numtopo.hopf_invariant", "geometry.FamilyMap.ambient_eval",
             "geometry.FamilyMap.ambient_jacobian",
             "geometry.domain_constraint", "invariants.lk_of_family",
             "invariants.smale_of_family", "cli.main")

    def build(self, seed: int, cfg_path: Path):
        cfg = _write_config(cfg_path, self.config_seed)
        return cfg, ["--config", str(cfg_path), "report", "paper-table",
                     "--m-range", self.m_range]

    @staticmethod
    def _report(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        rows = [line.split() for line in out.getvalue().splitlines()[2:]]
        return code, out.getvalue(), rows

    def run(self, inputs) -> PassResult:
        argv = inputs[1]
        res = PassResult()
        state = {}

        def certify():
            code, text, rows = self._report(argv[:4] + ["--numeric"]
                                            + argv[4:])
            state["numeric"] = (code, text)
            if code != 0:
                return f"exit code {code}"
            ref_code, ref_text, ref_rows = self._report(argv)
            state["closed"] = (ref_code, ref_text)
            if ref_code != 0 or not ref_rows:
                return f"closed-form table failed with exit code {ref_code}"
            if any(r[-1] != "both-agree" for r in rows):
                return "a row is not both-agree"
            if [r[:-1] for r in rows] != [r[:-1] for r in ref_rows]:
                return "numeric table differs from the closed-form table"
            return None

        res.check(f"paper-table --numeric --m-range {self.m_range}", certify)
        res.fingerprint = [state.get("numeric"), state.get("closed")]
        return res

    def probe(self, inputs) -> dict:
        """Repeat by hand the degree call smale_of_family makes for the
        member, so the traced preimage count can be compared with the
        SignedCount it returns."""
        mval = geometry.HalfInteger.parse(self.m_range.split("..")[0]).value
        count = numtopo.degree_S3(
            lambda t, r, p: geometry.column_m1(mval, t, r, p),
            (0.0, 0.0, 1.0, 0.0), inputs[0],
            jac_fn=lambda t, r, p: geometry.column_m1_jacobian(mval, t, r, p)
        ).count
        return {"numtopo.degree_S3.preimages": count,
                "numtopo.degree_S3.calls": 1}


# ---------------------------------------------------------------------------
# double_curve


class DoubleCurve:
    name = "double_curve"
    m = "1/2"
    bound = 1e-4    # acceptance bound on both Hausdorff distances
    spans = ("numtopo.solve_self_intersection", "numtopo.hausdorff_distance",
             "geometry.FamilyMap.ambient_eval",
             "geometry.FamilyMap.ambient_jacobian",
             "geometry.domain_constraint")

    def build(self, seed: int, cfg_path: Path):
        cfg = _write_config(cfg_path, seed)
        return cfg, geometry.FamilyMap(self.m, config=cfg)

    def run(self, inputs) -> PassResult:
        cfg, fam = inputs
        res = PassResult()
        curves = []

        def certify():
            curves.extend(numtopo.solve_self_intersection(fam, cfg))
            if len(curves) != 1:
                return f"{len(curves)} double curves, expected 1"
            si = curves[0]
            if not si.merged_cover:
                return "preimage branches did not merge"
            d_pre = numtopo.hausdorff_distance(
                si.preimage_components[0], fam.preimage_components(8192)[0])
            d_img = numtopo.hausdorff_distance(
                si.image_curve, fam.self_intersection_image(4096))
            res.fingerprint += [repr(d_pre), repr(d_img)]
            if not (d_pre < self.bound and d_img < self.bound):
                return (f"Hausdorff distances {d_pre:.3g}, {d_img:.3g} "
                        f"exceed {self.bound}")
            return None

        res.check(f"double curve m={self.m}", certify)
        res.fingerprint += [
            (len(c.preimage_components), c.merged_cover, len(c.image_curve),
             hashlib.sha256(c.image_curve.tobytes()).hexdigest())
            for c in curves]
        res.facts["numtopo.solve_self_intersection.curves"] = len(curves)
        return res


# ---------------------------------------------------------------------------
# qform_large


def brown_by_splitting(space) -> int:
    """Brown invariant by orthogonal splitting over Z2; the reference.

    Vectors are bitmasks over the basis.  An odd vector e (e.e = 1) splits
    off P+ or P- by q(e); with none left, a hyperbolic pair (e, f) splits
    off T4 when q(e) = q(f) = 2 and T0 otherwise (Brown 1972).
    """
    rows = [sum(bit << j for j, bit in enumerate(row)) for row in space.pairing]

    def pair(x, y):
        my = 0
        for j in range(len(rows)):
            if y >> j & 1:
                my ^= rows[j]
        return bin(x & my).count("1") & 1

    def q(x):
        total, partial = 0, 0
        for i in range(len(rows)):
            if x >> i & 1:
                total += space.basis_q[i] + 2 * (bin(partial & rows[i])
                                                 .count("1") & 1)
                partial |= 1 << i
        return total % 4

    basis = [1 << i for i in range(space.dim)]
    total = 0
    while basis:
        odd = next((e for e in basis if pair(e, e)), None)
        if odd is not None:
            total += 1 if q(odd) == 1 else 7
            basis = [w ^ (odd if pair(w, odd) else 0)
                     for w in basis if w != odd]
            continue
        e = basis[0]
        f = next(w for w in basis[1:] if pair(e, w))
        if q(e) == 2 and q(f) == 2:
            total += 4
        basis = [w ^ (e if pair(w, f) else 0) ^ (f if pair(w, e) else 0)
                 for w in basis if w not in (e, f)]
    return total % 8


def random_space(rng, dim: int):
    """A uniformly drawn nonsingular quadratic space of the given dim."""
    while True:
        upper = np.triu(rng.integers(0, 2, size=(dim, dim)))
        mat = upper + np.triu(upper, 1).T
        q = [(int(mat[i, i]) + 2 * int(rng.integers(0, 2))) % 4
             for i in range(dim)]
        try:
            return qform.QuadraticSpace(mat, q)
        except ValueError:      # singular pairing: draw again
            continue


class QformLarge:
    name = "qform_large"
    brown_dims = tuple(range(2, 23, 2))
    # is_split at dim >= 10 is left out: its exhaustive search took 141.6 s
    # on one non-split dim-10 space.  Per dim, a fixed mix of split and
    # non-split spaces keeps the cost of a pass independent of the seed.
    split_dims = (2, 4, 6, 8)
    split_mix = (2, 3)          # split, non-split spaces per dim
    spans = ("qform.brown", "qform.q_table", "qform.is_split",
             "qform.direct_sum")

    def build(self, seed: int, cfg_path: Path):
        cfg = _write_config(cfg_path, seed)
        rng = np.random.default_rng(seed)
        large = [random_space(rng, d) for d in self.brown_dims]
        small = []
        for d in self.split_dims:
            want = {True: self.split_mix[0], False: self.split_mix[1]}
            while any(want.values()):
                space = random_space(rng, d)
                split = brown_by_splitting(space) == 0
                if want[split]:
                    want[split] -= 1
                    small.append(space)
        half = len(small) // 2
        pairs = list(zip(small[:half], small[half:]))
        golden = json.loads(GOLDENS.read_text())["qform_large"].get(str(seed))
        return dict(cfg=cfg, large=large, small=small, pairs=pairs,
                    brown=[brown_by_splitting(s) for s in large],
                    split=[brown_by_splitting(s) == 0 for s in small],
                    golden=golden)

    def run(self, inp) -> PassResult:
        cfg, golden = inp["cfg"], inp["golden"]
        res = PassResult()
        got = {"brown": [], "split": [], "sums": []}

        def expect(kind, i, value, reference):
            got[kind].append(value)
            if value != reference:
                return f"{value} != reference {reference}"
            if golden is not None and value != golden[kind][i]:
                return f"{value} != golden {golden[kind][i]}"
            return None

        for i, space in enumerate(inp["large"]):
            res.check(f"brown dim {space.dim}", lambda: expect(
                "brown", i, qform.brown(space, cfg), inp["brown"][i]))
        for i, space in enumerate(inp["small"]):
            res.check(f"is_split dim {space.dim}", lambda: expect(
                "split", i, qform.is_split(space, cfg), inp["split"][i]))
        for i, (a, b) in enumerate(inp["pairs"]):
            def additive():
                whole = qform.brown(qform.direct_sum(a, b), cfg)
                parts = (qform.brown(a, cfg) + qform.brown(b, cfg)) % 8
                return expect("sums", i, whole, parts)
            res.check(f"brown additive dims {a.dim}+{b.dim}", additive)
        res.fingerprint = [got["brown"], got["split"], got["sums"]]
        return res


# ---------------------------------------------------------------------------
# calculus


class Calculus:
    name = "calculus"
    paths_per_initial = 6000     # two-event paths from each 5-space state
    mu_paths = 1000              # four-event paths from the 4-space fixture
    min_checked = 10_000
    spans = ("strata.random_paths", "strata.apply", "strata.verify_first_order",
             "strata.invariance_along_paths", "surfaces.mu", "qform.brown",
             "qform.direct_sum")

    def build(self, seed: int, cfg_path: Path):
        cfg = _write_config(cfg_path, seed)
        # the three initial states of the acceptance calculus sweep
        initials = [invariants.family_state("1/2", cfg),
                    invariants.family_state("-2", cfg),
                    invariants.ImmersionState5(
                        -2, -4, (invariants.Component5(True, 1),
                                 invariants.Component5(False, 2),
                                 invariants.Component5(True, 3)))]
        return dict(cfg=cfg, initials=initials,
                    fixture=surfaces.rp3_fixture(), seed=seed * 8)

    def run(self, inp) -> PassResult:
        cfg, seed = inp["cfg"], inp["seed"]
        res = PassResult()
        paths = []

        def draw():
            for k, init in enumerate(inp["initials"]):
                paths.extend(strata.random_paths(
                    init, events_per_path=2, n_paths=self.paths_per_initial,
                    seed=seed + k))

        res.check("draw two-event paths", draw)
        reports = []

        def first_order(invariant, planted=False):
            report = strata.verify_first_order(invariant, paths)
            reports.append(report)
            if planted:
                return None if not report.ok else "planted s.lk**2 not caught"
            if not report.ok:
                return report.summary()
            if report.checked < self.min_checked:
                return f"only {report.checked} configurations checked"
            return None

        for label in ("J", "L", "St"):
            res.check(f"first order {label}", lambda: first_order(
                getattr(invariants, label)))
        res.check("planted second-order s.lk**2",
                  lambda: first_order(lambda s: s.lk ** 2, planted=True))
        mu_reports = []

        def mu_invariance():
            paths4 = list(strata.random_paths(inp["fixture"], 4,
                                              self.mu_paths, seed=seed + 3))
            report = strata.invariance_along_paths(
                lambda s: surfaces.mu(s, cfg), paths4)
            mu_reports.append(report)
            if not report.ok or report.checked != self.mu_paths:
                return report.summary()
            return None

        res.check("mu invariant along 4-space paths", mu_invariance)
        res.fingerprint = [len(paths)] + [
            (r.checked, r.skipped, len(r.violations))
            for r in reports + mu_reports]
        res.facts["strata.verify_first_order.checked"] = sum(
            r.checked for r in reports)
        res.facts["strata.invariance_along_paths.checked"] = sum(
            r.checked for r in mu_reports)
        return res


WORKLOADS = {w.name: w for w in (TableNumeric(), DoubleCurve(), QformLarge(),
                                 Calculus())}
