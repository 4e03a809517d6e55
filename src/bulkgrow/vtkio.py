"""Legacy ASCII VTK and CSV writers for simulation output.

The bulk snapshot is an UNSTRUCTURED_GRID with point data (pressure, the
boundary curvature zero-padded into the bulk, and the velocity magnitude);
the boundary goes into a separate POLYDATA file with the trace fields.
Quadratic cells use the standard quadratic cell types; quadratic boundary
facets are subdivided for the polydata file, which has no curved cells.
"""

import numpy as np

from .errors import ValidationError
from .mesh import write_rows

_CELL_TYPES = {
    (2, 1): 5,   # triangle
    (2, 2): 22,  # quadratic triangle
    (3, 1): 10,  # tetrahedron
    (3, 2): 24,  # quadratic tetrahedron
}


def _write_points(fh, positions):
    pts3 = np.zeros((len(positions), 3))
    pts3[:, : positions.shape[1]] = positions
    fh.write(f"POINTS {len(positions)} double\n")
    write_rows(fh, pts3, "%.12g %.12g %.12g")


def _write_connectivity(fh, keyword, conn):
    """``<keyword> n size`` and one ``n_loc i0 i1 ...`` row per cell."""
    n_cells, n_loc = conn.shape
    fh.write(f"{keyword} {n_cells} {n_cells * (n_loc + 1)}\n")
    write_rows(fh, conn, f"{n_loc} " + " ".join(["%d"] * n_loc))


def _write_point_data(fh, n_points, fields):
    fh.write(f"POINT_DATA {n_points}\n")
    for name, values in fields:
        fh.write(f"SCALARS {name} double\nLOOKUP_TABLE default\n")
        write_rows(fh, values, "%.12g")


def write_vtk(path, mesh, state):
    """Write the bulk mesh at ``state.positions`` and the state fields as
    legacy VTK."""
    cell_type = _CELL_TYPES.get((mesh.dim, mesh.degree_k))
    if cell_type is None:
        raise ValidationError("unsupported mesh for VTK output")
    n = mesh.n_nodes
    padded_h = np.zeros(n)
    padded_h[: mesh.n_boundary] = state.curvature
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\nbulkgrow snapshot\nASCII\n"
                 "DATASET UNSTRUCTURED_GRID\n")
        _write_points(fh, state.positions)
        _write_connectivity(fh, "CELLS", mesh.bulk_elements)
        n_el = len(mesh.bulk_elements)
        fh.write(f"CELL_TYPES {n_el}\n" + f"{cell_type}\n" * n_el)
        _write_point_data(fh, n, [
            ("pressure", state.pressure),
            ("curvature", padded_h),
            ("velocity_magnitude", np.linalg.norm(state.velocity, axis=1)),
        ])


def _subdivide_facets(mesh):
    """Linear sub-facets of the boundary (quadratic facets are split)."""
    conn = mesh.boundary_elements
    if mesh.degree_k == 1:
        return conn
    if mesh.dim_m == 1:
        # [v0, v1, m] -> (v0, m), (m, v1)
        return np.vstack([conn[:, [0, 2]], conn[:, [2, 1]]])
    # [v0, v1, v2, m01, m12, m20] -> four corner/midpoint triangles
    return np.vstack(
        [
            conn[:, [0, 3, 5]],
            conn[:, [3, 1, 4]],
            conn[:, [5, 4, 2]],
            conn[:, [3, 4, 5]],
        ]
    )


def write_surface_vtk(path, mesh, state):
    """Write the boundary at ``state.positions`` as POLYDATA with the trace
    fields."""
    ng = mesh.n_boundary
    keyword = "LINES" if mesh.dim_m == 1 else "POLYGONS"
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\nbulkgrow boundary\nASCII\n"
                 "DATASET POLYDATA\n")
        _write_points(fh, state.positions[:ng])
        _write_connectivity(fh, keyword, _subdivide_facets(mesh))
        _write_point_data(fh, ng, [
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
