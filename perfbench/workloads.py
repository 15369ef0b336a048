"""Request sequences of the three workloads, generated from the bench seed.

Everything the program sees is a :class:`repro.runner.spec.RunSpec` built
here.  The same ``--seed`` always yields the same sequence; request ``i``
depends only on the seed and ``i``, never on elapsed time, so a faster
program completes more of the same sequence but never a different mix.

Accuracy requests use fixed seeds (``ACCURACY_SEEDS``) independent of the
bench seed: ``makespan_error_pct`` is computed over them, so it repeats
exactly across runs and across bench seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.runner.spec import ProgramSpec, RunSpec, SchedulerSpec

WORKLOADS = ("inproc-newseed", "inproc-hit", "fleet-mix")

MACHINE = "magny_cours_48"
N_WORKERS = 48
NB = 200

#: Simulated seeds of the accuracy requests (fixed, never drawn elsewhere).
ACCURACY_SEEDS = (900_001, 900_002, 900_003, 900_004)
#: Seeds of the machine-model ("real") reference runs made during set-up.
REAL_SEEDS = (1, 2)

#: Fleet-mix sizes per algorithm and the calibration problem size for each.
FLEET_SIZES = {"cholesky": (20, 30, 40), "qr": (12, 16, 20)}
CAL_NT = {"cholesky": 16, "qr": 8}
#: Scheduler configurations: (name, policy).
SCHEDULERS = (("quark", None), ("starpu", "dmda"), ("ompss", None))
#: Fleet-mix requests after the two accuracy requests come in blocks of
#: twelve, all in the same order; the bench seed draws the seeds of the new
#: requests.  A block is a list of units, sent one after another; the
#: requests of a unit are sent at once.  Per block: seven new seeds
#: (misses; every size once and Cholesky nt=40 twice), three repeats of
#: the latest request of a size (hits), and two repeats sent together with
#: the new request they repeat (coalesced joins).  Only identical requests
#: overlap, so which shard a new seed lands on never decides which requests
#: share a shard: with two free-running connections it did, and latency
#: moved by a third from one bench seed to the next.
_Q, _S, _O = SCHEDULERS
FLEET_UNITS = (
    (("repeat", "cholesky", 30),),
    (("new", "cholesky", 40, _Q), ("adjacent",)),
    (("new", "qr", 12, _O),),
    (("repeat", "qr", 20),),
    (("new", "cholesky", 20, _S),),
    (("new", "qr", 16, _Q), ("adjacent",)),
    (("repeat", "cholesky", 20),),
    (("new", "cholesky", 40, _O),),
    (("new", "cholesky", 30, _S),),
    (("new", "qr", 20, _Q),),
)
FLEET_BLOCK = sum(len(unit) for unit in FLEET_UNITS)


def sim_spec(algorithm: str, nt: int, scheduler: Tuple[str, Optional[str]], seed: int) -> RunSpec:
    name, policy = scheduler
    return RunSpec(
        program=ProgramSpec(algorithm, nt, NB),
        scheduler=SchedulerSpec(name, N_WORKERS, policy=policy),
        machine=MACHINE,
        seed=seed,
        mode="simulated",
        cal_nt=CAL_NT[algorithm],
    )


def real_spec(sim: RunSpec, seed: int) -> RunSpec:
    """The machine-model run of the same program and scheduler."""
    return RunSpec(program=sim.program, scheduler=sim.scheduler, machine=sim.machine,
                   seed=seed, mode="real")


REFERENCE_SHAPE = ("cholesky", 40, SCHEDULERS[0])  # the ROADMAP's reference request


def _seed_base(seed: int, salt: str) -> int:
    # Bench-seed-derived simulation seeds live in [1e6, 8e8): disjoint from
    # ACCURACY_SEEDS and REAL_SEEDS, distinct per request index.
    return random.Random(f"{salt}:{seed}").randrange(1_000_000, 800_000_000)


@dataclass
class Sequence:
    """A workload's request generator plus the indices it verifies."""

    name: str
    seed: int
    #: request indices whose traces are compared with in-process references
    reference_indices: Tuple[int, ...]
    #: request indices that make up the makespan accuracy sample
    accuracy_indices: Tuple[int, ...]
    _fleet: Optional[List[RunSpec]] = None
    _pool: Optional[List[RunSpec]] = None
    _order: Optional[List[int]] = None

    def spec(self, i: int) -> RunSpec:
        alg, nt, sched = REFERENCE_SHAPE
        if self.name == "inproc-newseed":
            if i < len(ACCURACY_SEEDS):
                return sim_spec(alg, nt, sched, ACCURACY_SEEDS[i])
            return sim_spec(alg, nt, sched, _seed_base(self.seed, "newseed") + i)
        if self.name == "inproc-hit":
            return self._pool[self._order[i % len(self._order)]]
        return self._fleet_spec(i)

    # -- inproc-hit ------------------------------------------------------
    def hit_pool(self) -> List[RunSpec]:
        """The specs published during set-up: one accuracy spec and one
        bench-seed-derived spec of the reference shape."""
        return list(self._pool)

    # -- fleet-mix -------------------------------------------------------
    def _fleet_spec(self, i: int) -> RunSpec:
        while len(self._fleet) <= i:
            self._extend_fleet()
        return self._fleet[i]

    def _extend_fleet(self) -> None:
        if not self._fleet:  # accuracy requests: one per algorithm, QUARK, fixed seed
            for k, alg in enumerate(("cholesky", "qr")):
                self._fleet.append(
                    sim_spec(alg, FLEET_SIZES[alg][0], SCHEDULERS[0], ACCURACY_SEEDS[k]))
            return
        base = _seed_base(self.seed, "fleet")
        for kind, *shape in (entry for unit in FLEET_UNITS for entry in unit):
            i = len(self._fleet)
            if kind == "adjacent":
                spec = self._fleet[i - 1]
            elif kind == "repeat":
                # The latest request of that size; in the first block, the
                # latest of the algorithm when no request of the size exists.
                alg, nt = shape
                same = [s for s in self._fleet if s.program.algorithm == alg]
                spec = next((s for s in reversed(same) if s.program.nt == nt), same[-1])
            else:
                alg, nt, sched = shape
                spec = sim_spec(alg, nt, sched, base + i)
            self._fleet.append(spec)

    @staticmethod
    def fleet_blocks() -> Iterator[List[range]]:
        """The fleet-mix blocks in order, each a list of units (index
        ranges): the two accuracy requests one at a time, then blocks of
        ``FLEET_UNITS``."""
        yield [range(0, 1), range(1, 2)]
        start = 2
        while True:
            units = []
            for unit in FLEET_UNITS:
                units.append(range(start, start + len(unit)))
                start += len(unit)
            yield units

    def first_new(self, alg: str, nt: int) -> int:
        """Index of the first new-seed request of one size."""
        i = 2
        while True:
            s = self._fleet_spec(i)
            if (s.program.algorithm, s.program.nt) == (alg, nt) and s.seed > ACCURACY_SEEDS[-1]:
                return i
            i += 1


def make_sequence(name: str, seed: int) -> Sequence:
    if name == "inproc-newseed":
        n_acc = len(ACCURACY_SEEDS)
        # One fixed accuracy request and the first bench-seed-derived one.
        return Sequence(name, seed, reference_indices=(0, n_acc),
                        accuracy_indices=tuple(range(n_acc)))
    if name == "inproc-hit":
        alg, nt, sched = REFERENCE_SHAPE
        pool = [sim_spec(alg, nt, sched, ACCURACY_SEEDS[0]),
                sim_spec(alg, nt, sched, _seed_base(seed, "hit"))]
        order = [0, 1] * 4
        random.Random(f"hit:{seed}").shuffle(order)
        seq = Sequence(name, seed, reference_indices=(), accuracy_indices=(),
                       _pool=pool, _order=order)
        first = {order.index(0), order.index(1)}
        seq.reference_indices = tuple(sorted(first))
        seq.accuracy_indices = (order.index(0),)
        return seq
    if name == "fleet-mix":
        seq = Sequence(name, seed, reference_indices=(), accuracy_indices=(0, 1), _fleet=[])
        # References: both accuracy requests plus the first new-seed request
        # of one mid size per algorithm (fixed sizes keep set-up time steady).
        seq.reference_indices = (0, 1, seq.first_new("cholesky", 30), seq.first_new("qr", 16))
        return seq
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


def task_counts(specs: List[RunSpec]) -> Dict[ProgramSpec, int]:
    """Task count of every distinct program among ``specs`` (one build each)."""
    out: Dict[ProgramSpec, int] = {}
    for s in specs:
        if s.program not in out:
            out[s.program] = len(s.program.build())
    return out


def all_fleet_programs() -> List[RunSpec]:
    """One spec per fleet-mix program shape (for task counts)."""
    return [sim_spec(alg, nt, SCHEDULERS[0], 0)
            for alg in sorted(FLEET_SIZES) for nt in FLEET_SIZES[alg]]
