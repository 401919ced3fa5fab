"""Command-line surface: sample, centrality, experiment run, report."""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import fields
from pathlib import Path

import click
from click.core import ParameterSource

from . import __version__
from .centrality import MEASURES, pivot_sources
from .errors import NetsampleError, PartialSampleError
from .experiments import (
    EXACT_BETWEENNESS_LIMIT,
    RAW_HEADER,
    SUMMARY_HEADER,
    ExperimentSpec,
    load_input,
    merge_results,
    read_yaml,
    run_experiment,
    sample_size,
    write_csv,
)
from .samplers import SAMPLERS, SamplerConfig

KNOB_DEFAULTS = {f.name: f.default for f in fields(SamplerConfig)}


def _knob(flag, name, kind, **kw):
    """A ``sample`` option for the ``SamplerConfig`` field ``name``, with its default."""
    return click.option(flag, name, type=kind, default=KNOB_DEFAULTS[name], show_default=True, **kw)


def _wrap_errors(fn):
    @functools.wraps(fn)
    def inner(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except PartialSampleError as exc:
            raise click.ClickException(f"partial sample: {exc}") from exc
        except NetsampleError as exc:
            raise click.ClickException(str(exc)) from exc

    return inner


def _load_graph(edge_list, sbm, directed):
    if (edge_list is None) == (sbm is None):
        raise click.UsageError("provide exactly one of --edge-list or --sbm")
    inp = {"edge_list": edge_list, "directed": directed} if sbm is None else {"sbm": read_yaml(sbm)}
    g, labels = load_input(inp)
    source = click.get_current_context().get_parameter_source("directed")
    if source is ParameterSource.COMMANDLINE and g.directed != directed:
        flag = "--directed" if directed else "--undirected"
        kind = "directed" if g.directed else "undirected"
        raise click.ClickException(f"{flag} contradicts the {kind} SBM in {sbm}")
    return g, labels


def _reject_unused(names, reason):
    """A ``UsageError`` naming the first option of ``names`` given on the
    command line, which the chosen command ignores for ``reason``."""
    ctx = click.get_current_context()
    for param in ctx.command.params:
        if param.name in names and ctx.get_parameter_source(param.name) is ParameterSource.COMMANDLINE:
            raise click.UsageError(f"{'/'.join(param.opts + param.secondary_opts)} {reason}")


# the options of ``centrality`` that each measure reads
MEASURE_OPTIONS = {
    "pagerank": {"gamma", "tol", "max_iter"},
    "eigenvector": {"tol", "max_iter"},
    "springrank": {"reg"},
    "betweenness": {"exact", "pivots", "pivot_seed"},
    "indegree": set(),
}


@click.group()
@click.version_option(version=__version__)
def cli():
    """Graph-sampling toolkit: samplers, centrality measures, experiments."""


@cli.command()
@click.option("--edge-list", type=click.Path(exists=True), help="SNAP-style edge list.")
@click.option("--sbm", type=click.Path(exists=True), help="YAML file with SBM parameters.")
@click.option("--directed/--undirected", default=True, show_default=True)
@click.option("--sampler", type=click.Choice(sorted(SAMPLERS)), required=True)
@click.option("--size", type=int, help="Absolute sample size.")
@click.option("--fraction", type=float, help="Sample size as a fraction of n.")
@_knob("--seed-node", "seed_nodes", int, multiple=True,
       help="Starting node (at most one); random if omitted.")
@_knob("--rng-seed", "rng_seed", int)
@_knob("--alpha", "alpha", float, help="In-degree mixing weight.")
@_knob("--exploration-p", "exploration_p", float)
@_knob("--leaderboard-capacity", "leaderboard_capacity", int)
@_knob("--rw-init-fraction", "rw_init_fraction", float)
@_knob("--damping", "damping", float)
@_knob("--rescore-on-pop", "rescore_on_pop", bool, is_flag=True)
@_knob("--p", "node2vec_p", float, help="node2vec return parameter.")
@_knob("--q", "node2vec_q", float, help="node2vec in-out parameter.")
@click.option("--output", type=click.Path(), required=True, help="Output prefix.")
@_wrap_errors
def sample(edge_list, sbm, directed, sampler, size, fraction, output, **knobs):
    """Run one sampler and write the node list plus JSON metadata."""
    # knobs holds one value per SamplerConfig field but target_size
    if sampler != "node2vec":
        _reject_unused({"node2vec_p", "node2vec_q"}, f"does not apply to --sampler {sampler}")
    g, _ = _load_graph(edge_list, sbm, directed)
    if (size is None) == (fraction is None):
        raise click.UsageError("provide exactly one of --size or --fraction")
    m = size if size is not None else sample_size(fraction, g.n)
    result = SAMPLERS[sampler](g, SamplerConfig(target_size=m, **knobs))
    out = Path(output)
    result.save(out.with_suffix(".json"), out.with_suffix(".nodes.txt"))
    click.echo(f"sampled {len(result.nodes)} nodes -> {out.with_suffix('.json')}")


@cli.command()
@click.option("--edge-list", type=click.Path(exists=True))
@click.option("--sbm", type=click.Path(exists=True))
@click.option("--directed/--undirected", default=True, show_default=True)
@click.option("--measure", type=click.Choice(sorted(MEASURES)), required=True)
@click.option("--gamma", type=float, default=0.85, show_default=True, help="PageRank damping.")
@click.option("--tol", type=float, default=1e-10, show_default=True)
@click.option("--max-iter", type=int, default=1000, show_default=True)
@click.option("--reg", type=float, default=1.0, show_default=True, help="SpringRank regularization.")
@click.option("--exact/--approximate", "exact", default=True, show_default=True, help="Betweenness mode.")
@click.option("--pivots", type=click.IntRange(min=1), default=200, show_default=True, help="Betweenness pivot count.")
@click.option("--pivot-seed", type=int, default=0, show_default=True)
@click.option("--output", type=click.Path(), required=True, help="CSV output path.")
@_wrap_errors
def centrality(
    edge_list, sbm, directed, measure, gamma, tol, max_iter, reg, exact, pivots, pivot_seed, output
):
    """Compute one centrality measure over the whole graph; write CSV."""
    unused = set().union(*MEASURE_OPTIONS.values()) - MEASURE_OPTIONS[measure]
    _reject_unused(unused, f"does not apply to --measure {measure}")
    if measure == "betweenness" and exact:
        _reject_unused({"pivots", "pivot_seed"}, "applies only to --approximate betweenness")
    g, _ = _load_graph(edge_list, sbm, directed)
    params = {
        "pagerank": {"gamma": gamma, "tol": tol, "max_iter": max_iter},
        "eigenvector": {"tol": tol, "max_iter": max_iter},
        "springrank": {"reg": reg},
    }.get(measure, {})
    if measure == "betweenness" and not exact:
        params = {"sources": pivot_sources(g.n, pivots, pivot_seed)}
    elif measure == "betweenness" and g.n > EXACT_BETWEENNESS_LIMIT:
        raise click.ClickException(
            f"exact betweenness refused for n={g.n} > {EXACT_BETWEENNESS_LIMIT}; "
            "use --approximate with --pivots"
        )
    vec = MEASURES[measure](g, **params)
    vec.save_csv(output)
    if not vec.converged:
        click.echo(f"warning: {measure} did not converge (residual {vec.residual:g})", err=True)
    click.echo(f"{measure} scores for {g.n} nodes -> {output}")


@cli.group()
def experiment():
    """Declarative experiment runner."""


@experiment.command("run")
@click.argument("spec_path", type=click.Path(exists=True))
@click.option("--output-dir", type=click.Path(), default=None, help="Override spec output_dir.")
@_wrap_errors
def experiment_run(spec_path, output_dir):
    """Run the experiment described by a YAML spec file."""
    spec = ExperimentSpec.from_yaml(spec_path)
    if output_dir is not None:
        spec.output_dir = output_dir
    result = run_experiment(spec)
    result.save(spec.output_dir)
    click.echo(f"{len(result.rows)} rows -> {spec.output_dir}/raw.csv")


@cli.command()
@click.argument("results_dir", type=click.Path(exists=True))
@click.option("--output-dir", type=click.Path(), required=True)
@_wrap_errors
def report(results_dir, output_dir):
    """Merge experiment outputs into one long-format CSV + JSON summary."""
    rows, summary = merge_results(results_dir)
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "merged_raw.csv", RAW_HEADER, rows)
    write_csv(out / "merged_summary.csv", SUMMARY_HEADER, summary)
    meta = {
        "rows": len(rows),
        "cells": len(summary),
        "datasets": sorted({r["dataset"] for r in rows}),
        "samplers": sorted({r["sampler"] for r in rows}),
        "measures": sorted({r["measure"] for r in rows}),
    }
    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    click.echo(f"merged {len(rows)} rows from {results_dir} -> {out}")


def main():
    cli(prog_name="netsample")


if __name__ == "__main__":
    sys.exit(main())
