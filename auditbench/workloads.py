"""The benchmark's workloads and the synthesis step they share.

Every workload is ``repro synth`` traffic generated from the run's
seed; the seed is the only input that varies between runs.  Why each
workload was chosen is recorded next to it in ``BENCHMARK.json``.

``hotcrp-read`` runs like the others but is not among the workloads
``BENCHMARK.json`` gates: its audits are the most memory-bound (~330
row versions scanned per SELECT), and on a shared 2-vCPU host its time
metrics spread past the 0.25 bound between runs of the same code (p50
launch-to-verdict IQR/median 0.30 over ten seeds at 25 s, against 0.06
for ``wiki-dedup`` in the same hour).  Its versioned-SQL read path is
still timed per layer by the traced run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from common import (
    SCALE,
    file_digest,
    last_json,
    quietest_cpu,
    repro_cmd,
    run_child,
)


#: Share of a live run's ``--seconds`` spent on the open-loop replay
#: behind its verdict lag; back-to-back replays fill the rest.
PACED_SHARE = 2 / 3


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``repro synth --workload`` (the application).
    app: str
    #: Requests per synthesized epoch batch.
    epoch_size: int
    #: Offline workloads: requests in the audited bundle.
    requests: int = 0
    #: Live workloads: offered rate (epochs per second) of the open-loop
    #: replay, and epochs replayed before timing starts.
    rate: float = 0.0
    warmup_epochs: int = 0

    @property
    def live(self) -> bool:
        return self.rate > 0

    def bundle_requests(self, seconds: float) -> int:
        """Requests to synthesize: the offline bundle, or for a live run
        the warm-up, ``PACED_SHARE`` of ``seconds`` at the offered rate
        (the open-loop replay; back-to-back replays fill the rest), and
        one more epoch to release the last timed epoch's verdict."""
        if not self.live:
            return self.requests
        paced = int(round(self.rate * seconds * PACED_SHARE))
        epochs = self.warmup_epochs + paced + 1
        return epochs * self.epoch_size

    def audit_args(self) -> list[str]:
        return ["--workload", self.app, "--scale", str(SCALE)]


WORKLOADS = {
    w.name: w for w in (
        Workload("hotcrp-read", app="hotcrp", epoch_size=500,
                 requests=3000),
        Workload("wiki-dedup", app="wiki", epoch_size=500,
                 requests=3000),
        Workload("cart-live", app="cart", epoch_size=100, rate=10.0,
                 warmup_epochs=4),
    )
}

#: Times ``repro synth`` runs per benchmark run; ``setup_s`` is their
#: median and every repeat must write the identical bundle.
SETUP_REPEATS = 3


class Setup:
    """``repro synth`` of the workload's bundle, repeatable.

    ``setup_s`` is the median wall of the repeats.  Each repeat is a
    failed operation unless ``repro synth`` exits 0, reports the
    requested size, and writes a bundle byte-identical to the first good
    repeat's (same spec + seed must give the same bundle); that first
    one becomes :attr:`bundle`.
    """

    def __init__(self, workload: Workload, seed: int, requests: int,
                 workdir: str, timeout_s: float):
        self.workload = workload
        self.seed = seed
        self.requests = requests
        self.workdir = workdir
        self.timeout_s = timeout_s
        self.bundle = os.path.join(workdir, f"{workload.name}-{seed}.jsonl")
        self.walls: list[float] = []
        self.problems: list[str] = []
        self._digest: str | None = None

    @property
    def ok(self) -> bool:
        return self._digest is not None

    def repeat(self) -> None:
        i = len(self.walls)
        out = os.path.join(self.workdir, f"synth{i}.jsonl")
        run = run_child(repro_cmd(
            "synth", "--workload", self.workload.app, "--scale", str(SCALE),
            "--seed", str(self.seed), "--requests", str(self.requests),
            "--epoch-size", str(self.workload.epoch_size), "--out", out,
            "--json",
        ), timeout=self.timeout_s, cpu=quietest_cpu())
        self.walls.append(run.wall_s)
        summary = last_json(run.stdout) or {}
        if run.returncode != 0 or summary.get("requests") != self.requests:
            self.problems.append(
                f"synth repeat {i} exited {run.returncode} with "
                f"{summary.get('requests')} of {self.requests} requests: "
                f"{run.stderr.strip()[-300:]}")
            return
        digest = file_digest(out)
        if self._digest is None:
            self._digest = digest
            os.replace(out, self.bundle)
            return
        if digest != self._digest:
            self.problems.append(f"synth repeat {i} wrote a different "
                                 f"bundle for the same seed")
        os.remove(out)
