"""loophound: rule-encoded corporate tax law, trajectory search, loophole analytics.

The package is organized in layers:

- :mod:`loophound.kernel` -- ground facts, states, action grounding, actions
- :mod:`loophound.join` -- rule conditions compiled into nested-loop joins
- :mod:`loophound.dsl` -- the ``.lhl`` rule language (parse/validate/render)
- :mod:`loophound.economy` -- commercial revenue, royalty cascades, transfers
- :mod:`loophound.taxation` -- per-company assessment with legal reductions
- :mod:`loophound.explorer` -- randomized best-first trajectory search
- :mod:`loophound.analytics` -- utility profiles, segments, frequency tables
- :mod:`loophound.induction` -- scheme hypotheses from labeled trajectories
- :mod:`loophound.policy` -- welfare impact of restricting schemes
- :mod:`loophound.formalizer` -- natural-language to DSL assistance
- :mod:`loophound.cli` -- the ``loophound`` command line

Bundled data: ``loophound.corpus_path("table1.lhl")`` and
``loophound.corpus_path("scenario.lhl")``.
"""

from importlib import resources

__version__ = "0.1.0"


def corpus_path(name: str):
    """Filesystem path of a bundled corpus file (``table1.lhl``, ``scenario.lhl``)."""
    ref = resources.files(__name__) / "corpus" / name
    if not ref.is_file():
        raise FileNotFoundError(f"no bundled corpus file named {name!r}")
    return ref
