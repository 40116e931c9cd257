"""A reference for the Gram matrix of a kernel's graph rows on X x Y.

m[i, j] = sum_{y, z} r[i, y] G[(i, y), (j, z)] r[j, z], with row i of r
read as a weight vector on {x_i} x Y. Two closed forms compute it apart
from GramMatrix.apply: a dense 4-D einsum over the blocks of G, and, for
G = kron(left, right), left * (r right r').
"""
import numpy as np

from probmorph.kernels import KroneckerGram


def pair_form(g, r):
    """m, the Gram matrix of the graph rows of r under the product Gram g."""
    if isinstance(g, KroneckerGram):
        return g.left.values * (r @ g.right.values @ r.T)
    nx, ny = r.shape
    return np.einsum("iy,iyjz,jz->ij", r, g.values.reshape(nx, ny, nx, ny), r)
