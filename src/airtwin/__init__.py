"""airtwin: voxel-level radio twin for low-altitude cellular airspace.

Predicts per-voxel RSRP/SINR over a 3D airspace from base-station sub-beam
configurations, validates predictions against UAV measurements, and optimizes
sub-beam steering angles for coverage and interference with a greedy
sequential selection strategy.
"""

__version__ = "0.1.0"
