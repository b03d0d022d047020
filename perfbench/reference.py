"""Machine-speed reference for the sbmimo benchmark.

On a shared host the speed of identical code drifts by a third over tens
of seconds.  The drift comes from contention by other tenants, and CPU time
tracks wall time, so process CPU time does not remove it.  The benchmark
times a fixed piece of numpy work next to each measurement and divides the
drift out.  The work shares no code with sbmimo, so a change to sbmimo
cannot move it.

Run as a script, this module serves ``Reference.speed()``: each line read
on standard input is answered with one speed on standard output.
"""

import subprocess
import sys
import time

# REF_STEPS loop steps at N = REF_N, then REF_PRODUCTS products over
# 2^16 x 16 spins: about 80 ms.  REF_NOMINAL_S is the median time of that
# work on the 2-core host the workloads were sized on, so normalised rates
# read as wall rates on that host.
REF_N = 32
REF_STEPS = 2500
REF_PRODUCTS = 4
REF_NOMINAL_S = 0.08


class Reference:
    """Fixed numpy work of the two kinds sbmimo does: a dSB-like loop of
    small-vector operations, which the interpreter bounds, and products
    over large arrays like the oracle's, which memory bounds."""

    def __init__(self, np):
        self.np = np
        rng = np.random.default_rng(0)
        j = rng.normal(size=(REF_N, REF_N))
        self.j = j + j.T
        self.x0 = rng.uniform(-0.1, 0.1, REF_N)
        self.spins = 2.0 * rng.integers(0, 2, (1 << 16, 16)) - 1.0
        self.a = rng.normal(size=(16, 16))
        self.y = rng.normal(size=16)

    def speed(self):
        """This machine's speed now, relative to REF_NOMINAL_S."""
        np = self.np
        t = time.perf_counter()
        x, y = self.x0, np.zeros(REF_N)
        for k in range(REF_STEPS):
            force = -(1.0 - k / REF_STEPS) * x - 0.05 * (self.j @ np.where(x >= 0.0, 1.0, -1.0))
            y = y + 0.1 * force
            x = x + 0.1 * y
            over = np.abs(x) > 1.0
            if over.any():
                x = np.where(over, np.sign(x), x)
                y = np.where(over, 0.0, y)
        for _ in range(REF_PRODUCTS):
            resid = self.y[None, :] - self.spins @ self.a.T
            int(np.argmin(np.einsum("ij,ij->i", resid, resid)))
        return REF_NOMINAL_S / (time.perf_counter() - t)


class ReferenceProcess:
    """Reference.speed() run in a process of its own, so the reference's
    arrays stay out of the worker's peak resident memory."""

    def __init__(self, env=None):
        self.proc = subprocess.Popen(
            [sys.executable, __file__],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )

    def speed(self):
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def serve():
    import numpy as np

    reference = Reference(np)
    for _line in sys.stdin:
        print(reference.speed(), flush=True)


if __name__ == "__main__":
    serve()
