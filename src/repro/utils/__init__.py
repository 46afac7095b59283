"""Utilities: ASCII Gantt/timeline rendering and terminal line charts."""

from .asciiplot import ascii_plot, plot_series_result
from .gantt import render_gantt, render_schedule_table

__all__ = [
    "ascii_plot",
    "plot_series_result",
    "render_gantt",
    "render_schedule_table",
]
