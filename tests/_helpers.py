import contextlib
import io
import os
import signal
import threading

import numpy as np
import pytest

from tmgpanel import BalancedPanel


def random_panel(rng, n=8, T=3, k_prime=1, noise=0.5, beta_spread=0.3):
    """Well-conditioned random panel with heterogeneous coefficients."""
    x = rng.normal(1.0, 1.0, (n, T, k_prime))
    beta = 1.0 + beta_spread * rng.standard_normal((n, k_prime))
    alpha = rng.standard_normal(n)
    y = alpha[:, None] + np.einsum("ntp,np->nt", x, beta)
    if noise > 0:
        y = y + noise * rng.standard_normal((n, T))
    return BalancedPanel(
        y=y, x=x, unit_ids=tuple(range(n)), time_ids=tuple(range(1, T + 1))
    )


# quoted, spaced, comma- and quote-bearing unit ids next to plain ones
QUOTED_IDS_CSV = (
    '"unit_id","time_id","y","x1"\n'
    '"a,b",1,0.5,1\n"a,b",2,"0.5",2\n" 1",1,0,1\n" 1",2,1,3\n'
    '"q""x",1,0,1\n"q""x",2,1,5\n1,1,0,1\n1,2,1,7\n#2,1,0,1\n#2,2,1,9\n'
)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def foreign_thread():
    """A second Python thread, alive for the block and joined after it."""
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, name="foreign")
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


class KilledMidPayload(io.BufferedWriter):
    """Set over ``io.BufferedWriter``, a forked child's pipe writer: the
    child's size and the first byte of its payload reach the pipe, then the
    child is SIGKILLed. In this process it writes as usual."""

    parent = os.getpid()

    def write(self, b):
        if os.getpid() == self.parent:
            return super().write(b)
        payload = getattr(self, "sized", False)
        self.sized = True
        written = super().write(memoryview(b)[:1] if payload else b)
        self.flush()
        if payload:
            os.kill(os.getpid(), signal.SIGKILL)
        return written
