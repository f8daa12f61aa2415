"""Workload definitions shared by the harness (run.py) and the measured process
(worker.py): the Monte Carlo cells, the CLI session and the seed scheme."""

from __future__ import annotations

#: Paper reference cell: n = 1000 units, rho_alpha = rho_beta = 0.5, PR^2 = 0.2,
#: chi-squared(2) outcome errors. kappa^2 is fixed to the calibrated values of
#: tests/test_acceptance.py so that no calibration runs inside a block.
MC_CELLS = {
    "mc_t2": {
        "T": 2,
        "kappa2": 15.50,
        "time_effects": False,
        "tags": ("fe", "mg", "tmg", "gp", "hausman"),
        "block_reps": 10,
    },
    "mc_te_t3": {
        "T": 3,
        "kappa2": 15.43,
        "time_effects": True,
        "tags": ("fete", "tmgte", "gpte", "hausman_te"),
        "block_reps": 6,
    },
}
MC_N = 1000
MC_RHO = 0.5
TRIM_ALPHA = 1.0 / 3.0
ALPHA_GP = 1.0 / 3.0

#: The analyst session: a long-format CSV of CLI_UNITS units x CLI_T periods,
#: rows shuffled, estimated with TMG-TE and then tested with Hausman-TE.
CLI_UNITS = 100_000
CLI_T = 3
CLI_PHI = (0.4, -0.1, -0.3)
CLI_TIME_IDS = tuple(range(2001, 2001 + CLI_T))


def cli_commands(csv: str, out: str) -> list[list[str]]:
    """The two commands of one CLI block, as argv lists for tmgpanel.cli.main."""
    return [
        ["estimate", csv, "--method", "tmg", "--te", "--dump-units", "--out", out],
        ["test", csv, "--te", "--out", out],
    ]


#: Set-ups per run, each an import plus a warm-up block in a fresh process.
#: setup_s is their median, and the last one goes on to the timed blocks.
SETUPS = 5
#: Units of the CSV that a CLI warm-up block reads. The warm-up pays the
#: first-call costs, which do not depend on the file's size. A full-size
#: warm-up would make setup_s mostly CSV parsing, the part of the work that
#: the host's slow spells hit hardest.
CLI_WARMUP_UNITS = 1_000


def block_seed(run_seed: int, block: int) -> int:
    """Seed of a block: warm-ups use blocks 0..4, timed blocks 1000 + j.

    Distinct per (run seed, block), so no block of a run repeats inputs.
    """
    return int(run_seed) * 1_000_000 + block


def timed_block(j: int) -> int:
    return 1000 + j
