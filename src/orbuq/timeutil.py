"""Calendar and epoch helpers.

One uniform time coordinate is used package-wide: seconds since J2000.0
(JD 2451545.0).  Civil UTC timestamps are treated as points on that uniform
scale; leap seconds are out of scope for desk-scale propagation spans.
"""

from __future__ import annotations

import re

J2000_JD = 2451545.0
DAY_S = 86400.0


def jday_from_civil(year: int, month: int, day: int,
                    hour: int = 0, minute: int = 0, second: float = 0.0) -> float:
    """Julian date of a Gregorian civil timestamp (Vallado's jday algorithm)."""
    jd = (
        367.0 * year
        - int(7 * (year + int((month + 9) / 12.0)) * 0.25)
        + int(275 * month / 9.0)
        + day
        + 1721013.5
    )
    frac = (second / 60.0 + minute) / 60.0 + hour
    return jd + frac / 24.0


_ISO_RE = re.compile(
    r"^(\d{4})-(\d{2})-(\d{2})[T ](\d{2}):(\d{2}):(\d{2}(?:\.\d+)?)(?:Z|\+00:00)?$"
)


def jday_from_iso(stamp: str) -> float:
    m = _ISO_RE.match(stamp.strip())
    if not m:
        raise ValueError(f"unrecognized timestamp {stamp!r}")
    y, mo, d, h, mi = (int(m.group(i)) for i in range(1, 6))
    s = float(m.group(6))
    return jday_from_civil(y, mo, d, h, mi, s)


def seconds_since_j2000(jd: float) -> float:
    return (jd - J2000_JD) * DAY_S


def julian_centuries(t_s: float) -> float:
    """Julian centuries since J2000 of a seconds-since-J2000 epoch."""
    return t_s / (DAY_S * 36525.0)
