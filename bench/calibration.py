"""A fixed reference job that times how fast the host runs right now.

    python3 bench/calibration.py

It shares no code with the program and never changes, so its time moves only
with the host. It is built like the program's runs: a fresh interpreter that
imports numpy and steps a small particle system whose pairwise temporaries
are large enough to be freshly mapped (and page-faulted) on every step.
"""

import numpy as np

N, DIM, STEPS, DT = 256, 2, 40, 0.025


def main() -> float:
    rng = np.random.default_rng(0)
    x = rng.standard_normal((N, DIM))
    v = rng.standard_normal((N, DIM))
    eye = np.eye(DIM)
    for _ in range(STEPS):
        dx = x[:, None, :] - x[None, :, :]
        phi = (1.0 + (dx * dx).sum(-1)) ** -0.25
        dv = v[None, :, :] - v[:, None, :]
        jac = phi[:, :, None, None] * (eye + dx[:, :, :, None] * dv[:, :, None, :])
        corr = np.einsum("ijab,jb->ia", jac, v) / N
        v = v + DT * (phi[:, :, None] * dv).mean(1) + DT * 1e-3 * corr \
            + np.sqrt(DT) * 0.1 * rng.standard_normal((N, DIM))
        x = x + DT * v
    return float(np.abs(x).sum())


if __name__ == "__main__":
    main()
