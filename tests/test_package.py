"""The package's public surface."""

import holonorm as hn

#: Names removed from the package; a few stay in their modules as None.
RETIRED = ["partial_sum", "restrict_to_line", "restrict_function", "lehto_virtanen_check",
           "weighted_sharp_sups", "affine_disc", "eval_disc_jets", "line_sharp", "UniSeries"]


def test_exports_resolve_and_retired_names_are_gone():
    for name in hn.__all__:
        assert getattr(hn, name) is not None, name
    for name in RETIRED:
        assert name not in hn.__all__
        assert getattr(hn, name, None) is None, name
