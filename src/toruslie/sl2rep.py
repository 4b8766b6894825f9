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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .torusgroup import GroupEmbedding

__all__ = [
    "B_H",
    "B_E",
    "B_F",
    "GroupRepresentation",
    "ad",
    "bracket",
    "coeffs",
    "from_coeffs",
    "standard_rep",
    "cyclic_labels",
]

B_H = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
B_E = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
B_F = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)


def bracket(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # BLAS @ on purpose: an elementwise commutator changes last bits that
    # the DN5 structure fit is sensitive to (its failing seeds on the square
    # and generic lattices rose 87 -> 89 of 0-799 and 133 -> 140 of 800-1999)
    return x @ y - y @ x


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


@dataclass(frozen=True)
class GroupRepresentation:
    """Assignment of 3x3 sl2-automorphisms to the elements of an embedding."""

    emb: GroupEmbedding
    mats: dict


def _cyclic_eigen(n: int, j: int) -> np.ndarray:
    """Generator image for C_N with faithful e-eigenvalue convention."""
    if n % 2 == 1:
        # Ad(diag(w^j, w^-j)): e picks up w^(2j)
        w = cmath.exp(2j * math.pi * (2 * j) / n)
    else:
        w = cmath.exp(2j * math.pi * j / n)
    return _diag_action(w)


def _extend(emb: GroupEmbedding, gen_images: dict) -> dict:
    """Breadth-first extension of generator images to the whole group, with
    a well-definedness check that makes the assignment a homomorphism.

    gen_images maps positions in emb.generators to images.  The search
    walks the embedding's generator table; element 0 is the identity, so
    generator i is element table[i][0].
    """
    table = emb.table
    mats = {table[i][0]: m for i, m in gen_images.items()}
    mats[0] = np.eye(3, dtype=complex)
    frontier = list(mats)
    while frontier:
        nxt = []
        for g in frontier:
            for i, ms in gen_images.items():
                h = table[i][g]
                m = ms @ mats[g]
                if h in mats:
                    if np.max(np.abs(mats[h] - m)) > 1e-10:
                        raise ValueError("generator images violate the group relations")
                else:
                    mats[h] = m
                    nxt.append(h)
        frontier = nxt
    assert len(mats) == emb.order
    return {emb.elements[k]: m for k, m in mats.items()}


def standard_rep(emb: GroupEmbedding, j: int = 1) -> GroupRepresentation:
    """The concrete sl2-action used for the normal forms.

    C_N (translations and rotations): generator -> e-eigenvalue
    exp(2*pi*i*j'/N) as in the module docstring; D_N adds the antidiagonal
    flip; C2 x C2 is the quaternion double-cover action; A4 extends it by
    the order-3 element.
    """
    kind = emb.kind
    if kind == "CN_translation":
        n = emb.order_param
        if n == 1:
            return GroupRepresentation(emb, {emb.elements[0]: np.eye(3, dtype=complex)})
        if math.gcd(j, n) != 1:
            raise ValueError(f"character index {j} is not coprime to {n}")
        return GroupRepresentation(emb, _extend(emb, {0: _cyclic_eigen(n, j)}))
    if kind == "Cl_rotation":
        ell = emb.order_param
        if math.gcd(j, ell) != 1:
            raise ValueError(f"character index {j} is not coprime to {ell}")
        w = cmath.exp(2j * math.pi * j / ell)
        return GroupRepresentation(emb, _extend(emb, {0: _diag_action(w)}))
    if kind == "DN":
        n = emb.order_param
        images = {0: _FLIP.copy()}
        if n > 1:
            if math.gcd(j, n) != 1:
                raise ValueError(f"character index {j} is not coprime to {n}")
            images[1] = _cyclic_eigen(n, j)
        return GroupRepresentation(emb, _extend(emb, images))
    if kind == "C2xC2_translation":
        return GroupRepresentation(emb, _extend(emb, {0: _R1_3, 1: _R2_3}))
    if kind == "A4":
        return GroupRepresentation(emb, _extend(emb, {0: _A4_S, 1: _R1_3, 2: _R2_3}))
    raise ValueError(f"unknown embedding kind {kind!r}")


def cyclic_labels(emb: GroupEmbedding) -> dict:
    """element -> exponent k for a cyclic embedding generated by its cyclic generator."""
    row = emb.table[emb.generators.index(emb.cyclic_generator)]
    labels = {}
    g = 0
    for k in range(emb.order):
        labels[emb.elements[g]] = k
        g = row[g]
    return labels
