import contextlib
import io
import tracemalloc

import numpy as np
import pytest

from sonatasim import cli, datagen, network, problems


def help_options(command: str) -> list[tuple[str, ...]]:
    """The names of each option that ``sonatasim <command> --help`` lists,
    one tuple per option (``("-c", "--config")``), but -h/--help."""
    text = io.StringIO()
    with contextlib.redirect_stdout(text), pytest.raises(SystemExit):
        cli.main([command, "--help"])
    options = []
    for line in text.getvalue().split("\noptions:\n", 1)[1].splitlines():
        if line.startswith("  -"):  # "  -c CONFIG, --config CONFIG   help text"
            names = tuple(alias.split()[0] for alias in line.strip().split("  ")[0].split(", "))
            if names != ("-h", "--help"):
                options.append(names)
    return options


@pytest.fixture(scope="session")
def small_ridge():
    cfg = datagen.SyntheticRidgeConfig(m=6, n=120, d=10, mu0=1.0, L0=100.0, lam=0.0, seed=11)
    return datagen.gen_ridge(cfg)


@pytest.fixture(scope="session")
def ridge_sweep_instance():
    """The instance of the ridge-sweep benchmark and the acceptance sweep's n=600 point."""
    cfg = datagen.SyntheticRidgeConfig(m=30, n=600, d=25, mu0=1.0, L0=1000.0, lam=0.0, seed=23)
    return datagen.gen_ridge(cfg)


@pytest.fixture(scope="session")
def small_ridge_constants(small_ridge):
    return problems.estimate_constants(small_ridge)


@pytest.fixture(scope="session")
def small_gossip():
    return network.metropolis_hastings(network.erdos_renyi(6, 0.6, seed=4))


@pytest.fixture
def rng():
    return np.random.default_rng(np.random.SeedSequence(99))


def classification_problem(loss_kind, m, n, d, lam, seed, reg=None):
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    A = rng.standard_normal((m, n, d))
    b = np.where(rng.random((m, n)) < 0.5, -1.0, 1.0)
    return problems.ProblemSpec(
        loss_kind=loss_kind,
        A=A,
        b=b,
        lam=lam,
        reg=reg if reg is not None else problems.Regularizer(),
    )


def hinge_problem(m=4, n=40, d=6, lam=1e-2, seed=5, reg=None):
    return classification_problem("smooth-hinge", m, n, d, lam, seed, reg)


def logistic_problem(m=4, n=40, d=6, lam=1e-2, seed=6, reg=None):
    return classification_problem("logistic", m, n, d, lam, seed, reg)


def traced_peak(fn):
    """fn()'s result and the most memory, in bytes, that tracemalloc (to which
    numpy reports its buffers) saw held during the call beyond what was held
    before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
