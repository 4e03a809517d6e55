"""Legacy ASCII VTK and CSV writers for simulation output.

Both snapshot files are one kind of file, a legacy UNSTRUCTURED_GRID of
points, one block of cells and point fields, written by one writer. The
bulk snapshot holds the bulk elements with the pressure, the boundary
curvature zero-padded into the bulk, and the velocity magnitude. The
boundary snapshot holds the boundary's own facets, one cell each, with the
trace fields. The facets are written as they are stored: at k = 2 they are
VTK's quadratic edges and triangles, whose node order (vertices, then edge
midpoints in ``EDGE_VERTICES`` order) is the mesh's own.
"""

import numpy as np

from .mesh import write_rows

# VTK cell type per (simplex dimension, degree).
_CELL_TYPES = {
    (1, 1): 3,   # line
    (1, 2): 21,  # quadratic edge
    (2, 1): 5,   # triangle
    (2, 2): 22,  # quadratic triangle
    (3, 1): 10,  # tetrahedron
    (3, 2): 24,  # quadratic tetrahedron
}


def _write_grid(path, title, positions, cells, dim, degree, fields):
    """Write points, the ``cells`` of simplex dimension ``dim`` and degree
    ``degree``, and the ``(name, values)`` point fields as one
    UNSTRUCTURED_GRID."""
    n_points = len(positions)
    n_cells, n_loc = cells.shape
    pts3 = np.zeros((n_points, 3))
    pts3[:, : positions.shape[1]] = positions
    with open(path, "w") as fh:
        fh.write(f"# vtk DataFile Version 3.0\n{title}\nASCII\n"
                 f"DATASET UNSTRUCTURED_GRID\nPOINTS {n_points} double\n")
        write_rows(fh, pts3, "%.12g %.12g %.12g")
        fh.write(f"CELLS {n_cells} {n_cells * (n_loc + 1)}\n")
        write_rows(fh, cells, f"{n_loc} " + " ".join(["%d"] * n_loc))
        fh.write(f"CELL_TYPES {n_cells}\n"
                 + f"{_CELL_TYPES[dim, degree]}\n" * n_cells
                 + f"POINT_DATA {n_points}\n")
        for name, values in fields:
            fh.write(f"SCALARS {name} double\nLOOKUP_TABLE default\n")
            write_rows(fh, values, "%.12g")


def write_vtk(path, mesh, state):
    """Write the bulk mesh at ``state.positions`` and the state fields as
    legacy VTK."""
    padded_h = np.zeros(mesh.n_nodes)
    padded_h[: mesh.n_boundary] = state.curvature
    _write_grid(path, "bulkgrow snapshot", state.positions, mesh.bulk_elements,
                mesh.dim, mesh.degree_k, [
                    ("pressure", state.pressure),
                    ("curvature", padded_h),
                    ("velocity_magnitude", np.linalg.norm(state.velocity, axis=1)),
                ])


def write_surface_vtk(path, mesh, state):
    """Write the boundary facets at ``state.positions`` and the trace fields
    as legacy VTK."""
    ng = mesh.n_boundary
    _write_grid(path, "bulkgrow boundary", state.positions[:ng],
                mesh.boundary_elements, mesh.dim_m, mesh.degree_k, [
                    ("pressure_trace", state.pressure[:ng]),
                    ("curvature", state.curvature),
                    ("normal_speed", state.normal_speed),
                ])


def write_csv(path, columns, rows):
    """CSV with a fixed column order and 12 significant digits."""
    out = [",".join(columns)]
    for row in rows:
        cells = []
        for col in columns:
            value = row[col]
            if isinstance(value, float):
                cells.append(f"{value:.12g}")
            else:
                cells.append(str(value))
        out.append(",".join(cells))
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")
