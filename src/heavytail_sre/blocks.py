"""Coordinate grouping by almost-sure equality of |A_j|^alpha_j.

Two coordinates belong to the same class when |A_i|^alpha_i and
|A_j|^alpha_j agree almost surely; the tail limit then concentrates on
the corresponding coordinate subspaces.  Sample agreement alone is not
trusted: every pairwise grouping decision is cross-checked against the
mixed moment E |A_i|^{alpha_i xi} |A_j|^{alpha_j (1-xi)}, which equals 1
on a shared class and falls strictly below 1 across classes.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .common import AmbiguousPartitionError, Record, check_coords
from .geometry import _as_weights
from .model import ModelSpec
from .moments import cross_kappa

DEFAULT_XI_PROBES = (0.25, 0.5, 0.75)


@dataclasses.dataclass(frozen=True)
class BlockPartition(Record):
    """Ordered coordinate classes plus the pairwise evidence behind them.

    classes are each sorted and ordered by smallest member, so the
    permutation (their concatenation) is a deterministic function of the
    grouping.
    """

    classes: tuple[tuple[int, ...], ...]
    permutation: tuple[int, ...]
    evidence: dict

    def __post_init__(self):
        if tuple(j for c in self.classes for j in c) != tuple(self.permutation):
            raise ValueError("permutation does not match the classes")
        if sorted(self.permutation) != list(range(len(self.permutation))):
            raise ValueError("classes must partition 0..d-1")

    def check(self, d: int) -> None:
        """ValueError unless the classes partition 0..d-1."""
        check_coords(d, *self.permutation)
        if len(self.permutation) != d:  # a permutation of 0..len-1, so it leaves out the rest
            raise ValueError(f"classes must partition 0..d-1, d={d}; "
                             f"{self.classes} cover {len(self.permutation)} of {d} coordinates")

    def class_of(self, j: int) -> int:
        for l, cls in enumerate(self.classes):
            if j in cls:
                return l
        raise IndexError(f"coordinate {j} not covered by the partition")

    @classmethod
    def from_json(cls, doc: dict) -> "BlockPartition":
        """Partition from its parsed JSON document, as ``to_dict`` writes it."""
        classes = tuple(tuple(int(j) for j in c) for c in doc["classes"])
        perm = tuple(int(j) for j in doc["permutation"])
        return cls(classes, perm, doc.get("evidence", {}))


def detect_blocks(
    spec: ModelSpec,
    alphas,
    rng: np.random.Generator,
    n: int = 100_000,
    tol_rel: float = 1e-9,
    xi_probes=DEFAULT_XI_PROBES,
    cross_method: str = "auto",
    cross_n: int = 200_000,
    cross_tol: float = 5e-3,
) -> BlockPartition:
    """Group coordinates by sampled agreement of |A_j|^alpha_j.

    A pair is grouped when the worst relative deviation
    max_k |v_i - v_j| / (1 + v_i) over n draws stays within tol_rel.
    Every pair is then validated through cross_kappa at each xi probe:
    grouped pairs must be consistent with the value 1, split pairs must
    have the whole confidence interval strictly below 1.  Disagreement
    raises AmbiguousPartitionError naming the pair.
    """
    d = spec.d
    alphas = _as_weights(alphas, d)
    if n < 2:
        raise ValueError("n must be at least 2")
    xi_probes = tuple(float(x) for x in xi_probes)
    if not xi_probes or any(not 0.0 < x < 1.0 for x in xi_probes):
        raise ValueError("xi probes must lie strictly inside (0, 1)")

    # |A_j|^alpha_j, row by row in the draw's own A rows.  A full-length
    # exponent row gives every element numpy's plain pow; a scalar or
    # broadcast exponent takes other paths (square for 2.0), other last bits
    v = spec.sample_coeffs(rng, n)[0].T
    scratch = np.empty(n)
    for j in range(d):
        np.abs(v[j], out=v[j])
        scratch.fill(alphas[j])
        v[j] **= scratch

    # label[j] is the least member of j's class so far; a grouped pair joins the two classes
    label = list(range(d))
    deviations: dict[tuple[int, int], float] = {}
    for i in range(d):
        for j in range(i + 1, d):
            np.subtract(v[i], v[j], out=scratch)
            np.abs(scratch, out=scratch)
            scratch /= 1.0 + v[i]
            dev = deviations[(i, j)] = float(np.max(scratch))
            if dev <= tol_rel:
                lo, hi = sorted((label[i], label[j]))
                label = [lo if l == hi else l for l in label]

    classes = tuple(tuple(k for k in range(d) if label[k] == l) for l in sorted(set(label)))
    perm = tuple(j for c in classes for j in c)

    evidence: dict[str, dict] = {}
    for (i, j), dev in deviations.items():
        same = label[i] == label[j]
        probes: dict[str, dict] = {}
        for xi in xi_probes:
            est = cross_kappa(
                spec, i, j, alphas[i], alphas[j], xi=xi,
                method=cross_method, n=cross_n, rng=rng,
            )
            probes[repr(xi)] = est.to_dict()
            if same and not (est.contains(1.0) or abs(est.value - 1.0) <= cross_tol):
                raise AmbiguousPartitionError(
                    f"coordinates {i} and {j} agree on samples but the mixed moment "
                    f"at xi={xi} is {est.value:.6g}, not 1",
                    pair=(i, j),
                )
            if not same and not est.ci_hi < 1.0:
                raise AmbiguousPartitionError(
                    f"coordinates {i} and {j} were split but the mixed moment at "
                    f"xi={xi} is not certified below 1 (interval "
                    f"[{est.ci_lo:.6g}, {est.ci_hi:.6g}])",
                    pair=(i, j),
                )
        evidence[f"{i}-{j}"] = {
            "max_rel_dev": dev,
            "same_class": same,
            "cross_kappa": probes,
        }
    return BlockPartition(classes, perm, evidence)

