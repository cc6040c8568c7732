"""Dense reference for the chain smoother: build and invert the full joint.

Takes the arrays of `fusionshrink.chain.smooth_core` for one chain,
rho0 (), rho (T-1,), precision (T, d, d) and shift (T, d), and returns its
outputs, mean (T, d), cov (T, d, d) and cross (T-1, d, d), from the dense
(T d) x (T d) precision.  It shares no code with the smoother, so the
tests use it as the independent check.
"""
import numpy as np

from fusionshrink.chain import DegeneratePosteriorError


def joint_precision(rho0, rho, precision):
    """The dense (T d) x (T d) precision of one chain's posterior: the
    site blocks, rho0 I on the first block, and for each transition rho_t
    on both diagonal blocks and -rho_t I between them."""
    T, d = precision.shape[:2]
    joint = np.zeros((T * d, T * d))
    eye = np.eye(d)
    for t in range(T):
        sl = slice(t * d, (t + 1) * d)
        joint[sl, sl] += precision[t]
    joint[:d, :d] += rho0 * eye
    for t in range(T - 1):
        r = rho[t]
        a = slice(t * d, (t + 1) * d)
        b = slice((t + 1) * d, (t + 2) * d)
        joint[a, a] += r * eye
        joint[b, b] += r * eye
        joint[a, b] -= r * eye
        joint[b, a] -= r * eye
    return joint


def dense_joint_oracle(rho0, rho, precision, shift):
    """Marginals of one chain by inverting its dense joint precision.

    Guarded to T*d <= 64; raises DegeneratePosteriorError when the joint
    precision is singular or indefinite.
    """
    precision = np.asarray(precision, dtype=float)
    shift = np.asarray(shift, dtype=float)
    T, d = precision.shape[0], precision.shape[-1]
    if T * d > 64:
        raise ValueError("dense oracle is limited to T*d <= 64")
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (T - 1,):
        raise ValueError(f"rho must have shape ({T - 1},), got {rho.shape}")
    joint = joint_precision(float(rho0), rho, precision)
    sign, _ = np.linalg.slogdet(joint)
    if sign <= 0:
        raise DegeneratePosteriorError("dense joint precision is singular")
    cov_joint = np.linalg.inv(joint)
    cov_joint = 0.5 * (cov_joint + cov_joint.T)
    mean = (cov_joint @ shift.ravel()).reshape(T, d)
    cov = np.empty((T, d, d))
    cross = np.empty((T - 1, d, d))
    for t in range(T):
        sl = slice(t * d, (t + 1) * d)
        cov[t] = cov_joint[sl, sl]
        if t + 1 < T:
            cross[t] = cov_joint[sl, (t + 1) * d : (t + 2) * d]
    return mean, cov, cross
