"""ruinscore: decision fusion and meta-model grading of earthquake damage
evidence (scene labels, component boxes, crack/spalling/rebar detections)
into four ordinal damage levels, with the matching evaluation metrics.

Importing the package loads no submodule: import the one you use, e.g.
`from ruinscore.fusion import rule_fusion`, so each command loads only what
it runs."""

__version__ = "0.1.0"
