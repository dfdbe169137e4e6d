"""Deterministic SVG rendering of chord diagrams (the text form of a
diagram is its canonical string).

Circles are laid out left to right on one row; chord feet sit on each
circle equally spaced clockwise starting from 12 o'clock, and chords are
drawn as dotted straight segments (also between two feet on the same
circle).  Equal diagrams produce byte-identical output.
"""

from __future__ import annotations

import math

from .diagrams import ChordDiagram

RADIUS = 50.0
PAD = 20.0
SPACING = 2 * RADIUS + PAD


def _foot_point(center_x: float, center_y: float, k: int, total: int) -> tuple[float, float]:
    # Clockwise from 12 o'clock in screen coordinates (y grows downward).
    angle = 2.0 * math.pi * k / total
    return (center_x + RADIUS * math.sin(angle), center_y - RADIUS * math.cos(angle))


def render_svg(d: ChordDiagram) -> str:
    m = d.m
    width = PAD + m * SPACING
    height = 2 * RADIUS + 2 * PAD
    cy = height / 2
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f"<title>{d}</title>",
    ]
    centers = [PAD + RADIUS + i * SPACING for i in range(m)]
    for cx in centers:
        out.append(
            f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{RADIUS:.2f}" '
            'fill="none" stroke="black" stroke-width="1.5"/>'
        )
    points: dict[int, list[tuple[float, float]]] = {}
    for i in range(m):
        block = d.rep.block(i)
        for k, label in enumerate(block):
            points.setdefault(label, []).append(
                _foot_point(centers[i], cy, k, len(block))
            )
    for label in sorted(points):
        (x1, y1), (x2, y2) = points[label]
        out.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            'stroke="black" stroke-width="1" stroke-dasharray="4 3"/>'
        )
        for x, y in points[label]:
            out.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2.00" fill="black"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
