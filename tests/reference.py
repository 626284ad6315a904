"""Reference algebra the tests compare against; the library does not use it."""


def cross(u, v):
    """Integer cross product; dot(cross(u, v), w) == det3((u, v, w))."""
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )
