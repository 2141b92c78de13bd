"""Serialisation: trajectory rows, summary tables and audit records.

Trajectories are line-delimited CSV rows (stream-appendable during long
runs); summaries are plain CSV.  Every file starts with comment lines
embedding the config hash and seed, so outputs are attributable and
reproducible byte for byte given (config, seed, version), all but the
measured ``wall_s`` column of the paths table.

Fixed headers:

* trajectory:      t,norm_G,norm_F0,norm_F1,norm_D,int_F1sq,regime,M,QV,flags
* uniform control: d,K,p_hat,ci_lo,ci_hi,n
* increments:      d,delta,eta,p_hat,ci_lo,ci_hi,n
* paths:           d,seed,status,blowup_reason,accepted_steps,trials,
                   rejected_<cause> for the causes non_finite, stiffness,
                   growth and crossing, finest_level,drift_evals,
                   wiener_draws,wall_s; one row per path of an ensemble
* events:          kind,index,time,norm,norm_before,level_hi,level_lo,K;
                   one row per switching event of a path
* audit:           key,value rows
"""

from __future__ import annotations

import csv
import io
import json
import os

TRAJECTORY_HEADER = "t,norm_G,norm_F0,norm_F1,norm_D,int_F1sq,regime,M,QV,flags"
UNIFORM_HEADER = "d,K,p_hat,ci_lo,ci_hi,n"
ALDOUS_HEADER = "d,delta,eta,p_hat,ci_lo,ci_hi,n"
PATHS_HEADER = (
    "d,seed,status,blowup_reason,accepted_steps,trials,rejected_non_finite,"
    "rejected_stiffness,rejected_growth,rejected_crossing,finest_level,drift_evals,"
    "wiener_draws,wall_s"
)
EVENTS_HEADER = "kind,index,time,norm,norm_before,level_hi,level_lo,K"


def _provenance(config_hash: str, seed) -> str:
    return f"# config_hash={config_hash}\n# seed={seed}\n"


def trajectory_csv(record, config_hash: str = "") -> str:
    """Render a TrajectoryRecord as CSV text (with provenance comments)."""
    buf = io.StringIO()
    buf.write(_provenance(config_hash, record.seed))
    buf.write(TRAJECTORY_HEADER + "\n")
    for row in record.rows():
        t, ng, n0, n1, nd, intf, regime, m, qv, flags = row
        buf.write(
            f"{t!r},{ng!r},{n0!r},{n1!r},{nd!r},{intf!r},{regime},{m!r},{qv!r},{flags}\n"
        )
    if record.blowup is not None:
        buf.write(f"# blowup_time={record.blowup[0]!r} reason={record.blowup[1]}\n")
    buf.write(f"# status={record.status}\n")
    return buf.getvalue()


def write_trajectory(path, record, config_hash: str = "") -> None:
    with open(path, "w") as fh:
        fh.write(trajectory_csv(record, config_hash))


def write_table(path, rows: list[dict], header: str, config_hash: str = "", seed=None) -> None:
    """Write dict rows under a fixed header (column order from the header)."""
    columns = header.split(",")
    with open(path, "w", newline="") as fh:
        fh.write(_provenance(config_hash, seed))
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row[c] for c in columns])


def write_keyvalue(path, mapping: dict, config_hash: str = "", seed=None) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(_provenance(config_hash, seed))
        writer = csv.writer(fh)
        writer.writerow(["key", "value"])
        for key in sorted(mapping):
            value = mapping[key]
            if isinstance(value, (dict, list, tuple)):
                value = json.dumps(value, sort_keys=True)
            writer.writerow([key, value])


def ensure_dir(path) -> str:
    os.makedirs(path, exist_ok=True)
    return path
