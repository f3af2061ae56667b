"""Dense coefficient vectors of roots, for references that work on them."""


def dense(root, dim):
    """The coefficient vector over ``dim`` coordinates of the root
    (i, ci, j, cj)."""
    i, ci, j, cj = root
    vec = [0] * dim
    vec[i] += ci
    vec[j] += cj
    return tuple(vec)
