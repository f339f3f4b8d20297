"""WKB / GeoJSON emitters (reference M9: /root/reference/geometry/pbf.go +
geometryimpl.go:235-519 emit WKT/(E)WKB/GeoJSON).

Standard little-endian ISO WKB; coordinates are int64 1e-7-deg converted
to float degrees (the reference's AsWkb does the same float conversion).
Optionally prefixed with an EWKB SRID=4326 header like the reference's
`srid` variant.
"""

from __future__ import annotations

import json
import struct

import numpy as np

_POINT = 1
_LINESTRING = 2
_POLYGON = 3
_MULTIPOLYGON = 6

_EWKB_SRID_FLAG = 0x20000000


def _coords_bytes(lon: np.ndarray, lat: np.ndarray) -> bytes:
    arr = np.empty((len(lon), 2), dtype="<f8")
    arr[:, 0] = np.asarray(lon, np.float64) * 1e-7
    arr[:, 1] = np.asarray(lat, np.float64) * 1e-7
    return arr.tobytes()


def _header(geom_type: int, srid: int | None) -> bytes:
    if srid is None:
        return struct.pack("<BI", 1, geom_type)
    return struct.pack("<BII", 1, geom_type | _EWKB_SRID_FLAG, srid)


def point_wkb(lon: int, lat: int, srid: int | None = None) -> bytes:
    return _header(_POINT, srid) + struct.pack("<dd", lon * 1e-7, lat * 1e-7)


def linestring_wkb(lon, lat, srid: int | None = None) -> bytes:
    return (
        _header(_LINESTRING, srid)
        + struct.pack("<I", len(lon))
        + _coords_bytes(lon, lat)
    )


def polygon_wkb(rings, srid: int | None = None) -> bytes:
    """rings: list of (lon array, lat array), ring 0 = outer."""
    out = [_header(_POLYGON, srid), struct.pack("<I", len(rings))]
    for lon, lat in rings:
        out.append(struct.pack("<I", len(lon)))
        out.append(_coords_bytes(lon, lat))
    return b"".join(out)


def multipolygon_wkb(polys, srid: int | None = None) -> bytes:
    """polys: list of ring-lists."""
    out = [_header(_MULTIPOLYGON, srid), struct.pack("<I", len(polys))]
    for rings in polys:
        out.append(polygon_wkb(rings, None))
    return b"".join(out)


def feature_geojson(geom_type: int, rings_or_coords, tags: dict,
                    feature_id: int) -> str:
    """One GeoJSON feature line (reference geojson.go:29-178 writes
    FeatureCollections; we emit newline-delimited features for streaming)."""
    if geom_type == _POINT:
        lon, lat = rings_or_coords
        geom = {"type": "Point", "coordinates": [lon * 1e-7, lat * 1e-7]}
    elif geom_type == _LINESTRING:
        lon, lat = rings_or_coords
        geom = {
            "type": "LineString",
            "coordinates": [
                [a * 1e-7, b * 1e-7] for a, b in zip(np.asarray(lon).tolist(),
                                                     np.asarray(lat).tolist())
            ],
        }
    elif geom_type == _POLYGON:
        geom = {
            "type": "Polygon",
            "coordinates": [
                [[a * 1e-7, b * 1e-7] for a, b in zip(np.asarray(lon).tolist(),
                                                      np.asarray(lat).tolist())]
                for lon, lat in rings_or_coords
            ],
        }
    else:
        geom = {
            "type": "MultiPolygon",
            "coordinates": [
                [
                    [[a * 1e-7, b * 1e-7] for a, b in zip(np.asarray(lon).tolist(),
                                                          np.asarray(lat).tolist())]
                    for lon, lat in rings
                ]
                for rings in rings_or_coords
            ],
        }
    return json.dumps(
        {"type": "Feature", "id": feature_id, "properties": tags, "geometry": geom},
        separators=(",", ":"),
        sort_keys=True,
    )
