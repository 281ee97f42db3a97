"""Packet-level discrete-event simulator for match-drop AQM fairness
experiments: DropTail, RED, CHOKe, gCHOKe and CHOKeD on a dumbbell
bottleneck shared by TCP and unresponsive CBR/UDP traffic."""

__version__ = "0.1.0"
