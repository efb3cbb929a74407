"""Observation parsing and result-row serialization for the CLI.

Input rows are either CSV (`x1..xd,a,y[,pi]` with the covariate count
declared up front) or JSON lines (`{"x": [...], "a": 0|1, "y": ...,
"pi": optional}`). Output rows are the stable CSV schema
`t,T,T_prime,psi_hat,lower,upper,radius,var_hat,status`.
"""

from __future__ import annotations

import json

import numpy as np

from .ate import EmitRow, Observation

__all__ = ["ParseError", "parse_observation", "serialize_observation",
           "OUTPUT_HEADER", "format_row"]

OUTPUT_HEADER = "t,T,T_prime,psi_hat,lower,upper,radius,var_hat,status"


class ParseError(ValueError):
    """An input row could not be turned into an Observation."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def parse_observation(row: str, d: int, line_no: int = 0) -> Observation:
    """Parse one text record into an Observation.

    ``d`` is the declared covariate dimension; rows may carry an optional
    trailing known propensity.
    """
    row = row.strip()
    if not row:
        raise ParseError(line_no, "empty row")
    try:
        if row.startswith("{"):
            obj = json.loads(row)
            x = obj["x"]
            a = obj["a"]
            y = obj["y"]
            pi = obj.get("pi")
        else:
            parts = [p.strip() for p in row.split(",")]
            if len(parts) == d + 2:
                pi = None
            elif len(parts) == d + 3:
                pi = float(parts[d + 2])
            else:
                raise ParseError(
                    line_no,
                    f"expected {d + 2} or {d + 3} fields for d={d}, "
                    f"got {len(parts)}",
                )
            x = [float(p) for p in parts[:d]]
            a = float(parts[d])
            y = float(parts[d + 1])
        if len(x) != d:
            raise ParseError(line_no, f"expected {d} covariates, got {len(x)}")
        if a not in (0, 1, 0.0, 1.0):
            raise ParseError(line_no, f"treatment must be 0 or 1, got {a!r}")
        return Observation(
            x=np.asarray(x, dtype=float),
            a=int(a),
            y=float(y),
            known_pi=None if pi is None else float(pi),
        )
    except ParseError:
        raise
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        # ValueError covers json.JSONDecodeError and DataError
        raise ParseError(line_no, str(exc)) from exc


def serialize_observation(z: Observation) -> str:
    """CSV form of an observation, the inverse of the CSV parse."""
    parts = ["%.9g" % v for v in z.x] + [str(z.a), "%.9g" % z.y]
    if z.known_pi is not None:
        parts.append("%.9g" % z.known_pi)
    return ",".join(parts)


def format_row(row: EmitRow) -> str:
    """One output CSV line for an engine emission."""
    if row.point is None:
        body = ",,,,"
    else:
        p = row.point
        body = "%.9g,%.9g,%.9g,%.9g,%.9g" % (
            p.estimate, p.lower, p.upper, p.radius, p.var_hat,
        )
    return "%d,%d,%d,%s,%s" % (row.t, row.t_eval, row.t_train, body, row.status)
