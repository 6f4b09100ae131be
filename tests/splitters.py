"""load_table with one of its two splitters alone: numpy's byte splitter,
or csv.reader from the first block on."""

import pytest

from biasaudit import tabular


def _refuse(*args, **kwargs):
    raise tabular._Unsplittable


def load_by(path, splitter):
    """``load_table(path)`` where, for ``"bytes"``, no block may be handed
    to csv.reader (``_Unsplittable`` if one is), or, for ``"csv"``, numpy
    splits no block."""
    seam = {"bytes": "_csv_blocks", "csv": "_split_block"}[splitter]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tabular, seam, _refuse)
        return tabular.load_table(path)
