"""sl2 arithmetic and the finite group actions on it.

The global basis is B = (h, e, f) with [h, e] = 2e, [h, f] = -2f,
[e, f] = h.  Automorphisms of sl2 are conjugations X -> m X m^-1 by
invertible 2x2 matrices taken modulo scalars (PGL2 = PSL2 over C), stored
as 3x3 matrices over B, in closed form by ad (elementwise over stacks).

Convention for the cyclic actions: the generator scales e by a primitive
root of unity,

    rho(r): (a, b; c, -a) -> (a, w^j b; w^-j c, -a),   w = exp(2*pi*i/N).

For odd N this is Ad of diag(w^j, w^-j) relabelled (j -> 2j is invertible
mod N); for even N it is Ad of the diag(w_2N^j, w_2N^-j) lift, the only
way the action of C_N is faithful.  The dihedral reflection acts by
conjugation with the antidiagonal flip (determinant -1, legitimate in
PGL2), sending (h, e, f) -> (-h, f, e).

A group action is the (order, 3, 3) array of the elements' images, in the
order of the embedding's elements: an element's index is its handle.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .torusgroup import GroupEmbedding

__all__ = [
    "B_H",
    "B_E",
    "B_F",
    "ad",
    "bracket",
    "coeffs",
    "from_coeffs",
    "standard_rep",
]

B_H = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
B_E = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
B_F = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)


def bracket(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """xy - yx of 2x2 matrices, elementwise over stacks (..., 2, 2).

    With dx = x11 - x22 and dy = y11 - y22 the entries are
    (x12 y21 - x21 y12, dx y12 - dy x12; dy x21 - dx y21, -(x12 y21 - x21 y12)).
    """
    dx = x[..., 0, 0] - x[..., 1, 1]
    dy = y[..., 0, 0] - y[..., 1, 1]
    out = np.empty(np.broadcast_shapes(x.shape, y.shape), dtype=np.result_type(x, y))
    out[..., 0, 0] = x[..., 0, 1] * y[..., 1, 0] - x[..., 1, 0] * y[..., 0, 1]
    out[..., 0, 1] = dx * y[..., 0, 1] - dy * x[..., 0, 1]
    out[..., 1, 0] = dy * x[..., 1, 0] - dx * y[..., 1, 0]
    out[..., 1, 1] = -out[..., 0, 0]
    return out


def coeffs(x: np.ndarray) -> np.ndarray:
    """Coordinates of a traceless 2x2 matrix over (h, e, f)."""
    return np.stack([x[..., 0, 0], x[..., 0, 1], x[..., 1, 0]], axis=-1)


def from_coeffs(v) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    h, e, f = v[..., 0], v[..., 1], v[..., 2]
    out = np.empty(v.shape[:-1] + (2, 2), dtype=complex)
    out[..., 0, 0] = h
    out[..., 0, 1] = e
    out[..., 1, 0] = f
    out[..., 1, 1] = -h
    return out


def ad(m: np.ndarray) -> np.ndarray:
    """3x3 matrix of X -> m X m^-1 over (h, e, f), elementwise over (..., 2, 2).

    For m = ((a, b), (c, d)) the columns (the images of h, e and f) are
    (ad + bc, -2ab, 2cd), (-ac, a^2, -c^2) and (bd, -b^2, d^2) over det m.
    A single singular matrix raises; stacks divide by their computed dets.
    """
    m = np.asarray(m, dtype=complex)
    a, b, c, d = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    det = a * d - b * c
    if m.ndim == 2 and abs(det) < 1e-14:
        raise ValueError("conjugating matrix is singular")
    out = np.empty(m.shape[:-2] + (3, 3), dtype=complex)
    out[..., 0, 0] = a * d + b * c
    out[..., 1, 0] = -2.0 * a * b
    out[..., 2, 0] = 2.0 * c * d
    out[..., 0, 1] = -a * c
    out[..., 1, 1] = a * a
    out[..., 2, 1] = -c * c
    out[..., 0, 2] = b * d
    out[..., 1, 2] = -b * b
    out[..., 2, 2] = d * d
    out /= det[..., None, None]
    return out


def _diag_action(w: complex) -> np.ndarray:
    """(h, e, f) -> (h, w e, w^-1 f)."""
    return np.diag([1.0, w, 1.0 / w]).astype(complex)


_FLIP = ad([[0, 1], [1, 0]])
_R1_3 = ad([[1j, 0], [0, -1j]])
_R2_3 = ad([[0, 1], [-1, 0]])
_A4_S = ad(0.5 * np.array([[1 + 1j, -1 + 1j], [1 + 1j, 1 - 1j]]))


def _cyclic_eigen(n: int, j: int) -> np.ndarray:
    """Generator image for C_N with faithful e-eigenvalue convention."""
    if n % 2 == 1:
        # Ad(diag(w^j, w^-j)): e picks up w^(2j)
        w = cmath.exp(2j * math.pi * (2 * j) / n)
    else:
        w = cmath.exp(2j * math.pi * j / n)
    return _diag_action(w)


def _extend(emb: GroupEmbedding, gen_images: list) -> np.ndarray:
    """Breadth-first extension of generator images to the whole group, with
    a well-definedness check that makes the assignment a homomorphism.

    gen_images[i] is the image of emb.generators[i].  The search walks the
    generator table from element 0, the identity; then the image of every
    product s g is checked against s's image times g's, all at once.
    Returns the (order, 3, 3) images in the order of emb.elements.
    """
    table = emb.table
    mats = {table[i][0]: m for i, m in enumerate(gen_images)}
    mats[0] = np.eye(3, dtype=complex)
    frontier = list(mats)
    while frontier:
        nxt = []
        for g in frontier:
            for i, ms in enumerate(gen_images):
                h = table[i][g]
                if h not in mats:
                    mats[h] = ms @ mats[g]
                    nxt.append(h)
        frontier = nxt
    assert len(mats) == emb.order
    group = np.array([mats[k] for k in range(emb.order)])
    products = np.array(gen_images)[:, None] @ group
    if np.max(np.abs(products - group[np.array(table[: len(gen_images)])])) > 1e-10:
        raise ValueError("generator images violate the group relations")
    return group


def standard_rep(emb: GroupEmbedding, j: int = 1) -> np.ndarray:
    """The concrete sl2-action used for the normal forms: the (order, 3, 3)
    images of the group's elements, in the order of emb.elements.

    C_N (translations and rotations): generator -> e-eigenvalue
    exp(2*pi*i*j'/N) as in the module docstring; D_N adds the antidiagonal
    flip; C2 x C2 is the quaternion double-cover action; A4 extends it by
    the order-3 element.  The character index j of the cyclic kinds must
    be coprime to N and is reduced mod N first.
    """
    kind, n = emb.kind, emb.order_param
    if kind in ("CN_translation", "Cl_rotation", "DN"):
        if math.gcd(j, n) != 1:
            raise ValueError(f"character index {j} is not coprime to {n}")
        # the characters depend on j mod N alone; reducing first keeps the
        # exponentials' rounding that of an index below N
        j %= n
    if kind == "CN_translation":
        return _extend(emb, [_cyclic_eigen(n, j)])
    if kind == "Cl_rotation":
        return _extend(emb, [_diag_action(cmath.exp(2j * math.pi * j / n))])
    if kind == "DN":
        return _extend(emb, [_FLIP] + ([_cyclic_eigen(n, j)] if n > 1 else []))
    if kind == "C2xC2_translation":
        return _extend(emb, [_R1_3, _R2_3])
    if kind == "A4":
        return _extend(emb, [_A4_S, _R1_3, _R2_3])
    raise ValueError(f"unknown embedding kind {kind!r}")

