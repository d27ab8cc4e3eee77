"""Persistence of trajectories, field grids, bound certificates and reports.

All file formats carry a version tag in their first line.  Floats are written
with 17 significant digits, which round-trips IEEE doubles exactly, so
re-running a deterministic solve reproduces files byte for byte.

Every writer goes through ``_rewrite``, which rewrites an existing file in
place: it opens without truncating, writes the new bytes over the old ones
and then truncates the file to their length.  On ext4 it is truncating a
file that holds data blocks on open that costs: rewriting a 2 kB file 4 ms
after its last rewrite took 225-290 us with truncation on open and 28-32 us
in place, and 190-225 us against 45-65 us when each rewrite grew or shrank
the file by 18 kB (2-core x86-64 box, root ext4 mounted with ``discard``;
on tmpfs the two cost the same).  A rerun into a directory that holds the
outputs gains from this: in one process, ``chemosim simulate`` of a
one-segment 1D scenario into an existing directory took 0.5-0.8 ms more than
into a new one with truncation on open, and as long as into a new one in
place; the whole process, interpreter start included, took 250-275 ms.
Writing a new file costs the same either way.  Unlinking and
re-creating the file would break hard links, replace symlinks and reset the
mode, and a temporary file renamed over the target took 50 us.  A rewritten
file keeps its inode, its mode and its links, and a symlinked output path is
written through.  Only a regular file is truncated, so a device or a pipe
(``verify --output /dev/stdout``) takes the bytes as a stream.

The rewrite is not atomic, and neither was truncating on open.  An error
part way through (a full disk, an interrupt) still cuts the file to the new
bytes written so far, as truncating on open left it.  A process or machine
that dies in the middle of a rewrite can leave those bytes followed by the
old file's bytes past them, where truncating on open could leave a short
file.  Either way, a file whose run did not finish must not be read.
"""

from __future__ import annotations

import json
import os
import stat
from pathlib import Path

import numpy as np

from .field import FdField
from .paths import AgentPath

TRAJECTORY_TAG = "chemosim-trajectory-v1"
FIELD_TAG = "chemosim-field-grid-v1"
BOUNDS_TAG = "chemosim-bounds-v1"
MANIFEST_TAG = "chemosim-manifest-v1"
REPORT_TAG = "chemosim-report-v1"


def _rewrite(file, text: str) -> None:
    """Write ``text`` to ``file`` as UTF-8, in place (module docstring):
    open without truncating, creating the file with mode 0o666 less the
    umask, write every byte, then truncate a regular file to what was
    written, also when a write fails part way."""
    data = memoryview(text.encode("utf-8"))
    fd = os.open(file, os.O_WRONLY | os.O_CREAT, 0o666)
    written = 0
    try:
        while written < len(data):  # a write may take fewer bytes than given
            written += os.write(fd, data[written:])
    finally:  # on an error too, so no old byte is left past the new ones
        try:
            if stat.S_ISREG(os.fstat(fd).st_mode):  # ftruncate fails on a device or a pipe
                os.ftruncate(fd, written)
        finally:
            os.close(fd)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _table_lines(table: np.ndarray) -> list[str]:
    """One comma-separated line per row of a 2D float table, each value as
    ``_fmt`` writes it, through one printf template per row."""
    template = ",".join(["%.17g"] * table.shape[1])
    return [template % tuple(row) for row in table.tolist()]


def write_trajectory(path: AgentPath, file) -> None:
    """One row per time node: t, then x and v per agent and axis."""
    n_dim, n_ag = path.dimension, path.n_agents
    cols = ["t"]
    cols += [f"x{j + 1}_{d + 1}" for j in range(n_ag) for d in range(n_dim)]
    cols += [f"v{j + 1}_{d + 1}" for j in range(n_ag) for d in range(n_dim)]
    lines = [f"# {TRAJECTORY_TAG}", "# " + ",".join(cols)]
    m = len(path.times)
    # (time, axis, agent) -> (time, agent, axis): agent-major columns
    table = np.hstack([path.times[:, None], path.X.transpose(0, 2, 1).reshape(m, -1),
                       path.V.transpose(0, 2, 1).reshape(m, -1)])
    lines += _table_lines(table)
    _rewrite(file, "\n".join(lines) + "\n")


def read_trajectory(file) -> AgentPath:
    """The path of a `write_trajectory` file; a file with no header, no rows
    or a row whose length is not the header's raises ValueError naming it."""
    lines = Path(file).read_text().strip().splitlines()
    if not lines or lines[0] != f"# {TRAJECTORY_TAG}":
        raise ValueError(f"{file} is not a {TRAJECTORY_TAG} file")
    if len(lines) < 3:
        missing = "header" if len(lines) == 1 else "rows"
        raise ValueError(f"{file} holds no {missing}: its run may not have finished")
    header = lines[1].lstrip("# ").split(",")
    rows = [line.split(",") for line in lines[2:]]
    for k, row in enumerate(rows):
        if len(row) != len(header):
            raise ValueError(f"{file}: row {k + 1} holds {len(row)} values, the header "
                             f"names {len(header)}")
    n_pairs = (len(header) - 1) // 2
    # column names encode agent and axis counts
    last_x = header[n_pairs]
    n_dim = int(last_x.split("_")[1])
    n_ag = n_pairs // n_dim
    data = np.asarray([[float(v) for v in row] for row in rows])
    times = data[:, 0]
    # agent-major columns -> (time, axis, agent)
    X, V = (block.reshape(len(times), n_ag, n_dim).transpose(0, 2, 1).copy()
            for block in (data[:, 1:1 + n_pairs], data[:, 1 + n_pairs:]))
    return AgentPath(times, X, V)


def write_field_snapshot(fdf: FdField, t: float, file) -> None:
    """Dense row-major table of grid values at the stored time closest to t."""
    k = int(np.argmin(np.abs(fdf.times - t)))
    values = fdf.values[k]
    dim = len(fdf.axes)
    half_width = float(fdf.axes[0][-1])
    header = (f"# {FIELD_TAG} dim={dim} box={_fmt(half_width)} "
              f"h={_fmt(fdf.h)} t={_fmt(fdf.times[k])}")
    table = values.reshape(-1, values.shape[-1]) if dim > 1 else values[None, :]
    lines = [header] + _table_lines(table)
    _rewrite(file, "\n".join(lines) + "\n")


def write_bounds(values: dict, file) -> None:
    """Flat key = value document of certificate constants."""
    lines = [f"# {BOUNDS_TAG}"]
    for key, val in values.items():
        lines.append(f"{key} = {_fmt(val)}")
    _rewrite(file, "\n".join(lines) + "\n")


def read_bounds(file) -> dict:
    lines = Path(file).read_text().strip().splitlines()
    if not lines or lines[0] != f"# {BOUNDS_TAG}":
        raise ValueError(f"{file} is not a {BOUNDS_TAG} file")
    out = {}
    for line in lines[1:]:
        key, _, val = line.partition("=")
        out[key.strip()] = float(val)
    return out


def write_manifest(manifest: dict, file) -> None:
    doc = {"format": MANIFEST_TAG}
    doc.update(manifest)
    _rewrite(file, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def read_manifest(file) -> dict:
    doc = json.loads(Path(file).read_text())
    if doc.get("format") != MANIFEST_TAG:
        raise ValueError(f"{file} is not a {MANIFEST_TAG} file")
    return doc


def write_reports(reports: list, file) -> None:
    doc = {"format": REPORT_TAG, "reports": [r.to_dict() for r in reports]}
    _rewrite(file, json.dumps(doc, indent=2, sort_keys=True) + "\n")
