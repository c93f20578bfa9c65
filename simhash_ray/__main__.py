"""CLI entry point — the new engine's analogue of the reference's
``simhash-runner`` command surface (argument parse + subcommand
dispatch at /root/reference/app/simhash-runner.hs:126-184; the
reference's v2-train/v2-infer model subcommands map onto the dedup
pipeline per the north rule).

Subcommands::

    python -m simhash_ray dedup  <table-dir> --out DIR [--ckpt DIR]
        run the flagship near-dup pipeline over a Parquet images table
        (columns image_id, caption, phash [+ bytes ...]); writes
        assignment/ edges/ and optionally survivors/ as partitioned
        Parquet plus metrics.json
    python -m simhash_ray encode <table-dir> --out DIR
        signatures only (image_id, simhash, phash)
    python -m simhash_ray dedup-docs <table> --out DIR [--ckpt DIR]
        text-domain flagship over a document table
        (--text-col/--id-col; writes assignment/ + metrics.json)
    python -m simhash_ray convert <src> --from lines --to parquet --out DIR
        stream-convert between corpus formats (lines = the reference's
        'label, message' files, jsonl, csv, parquet)
    python -m simhash_ray curate <table> --out DIR [--ckpt DIR]
        curate a raw document table (lang gate → quality gate →
        tokenset dedup → md5 split → decontamination) into a
        train/valid corpus; --ckpt makes the run stage-resumable
    python -m simhash_ray ingest <shard> --base DIR --out DIR
        fold an arriving shard into a deduped corpus (incremental
        dedup): --base holds the prior signatures/ + assignment/;
        writes the shard assignment, the merged global assignment and
        the updated signature table, ready to be the next --base

The CLI owns its Ray session (guarded init — the driver contract in
__ray_entry__.py forbids module-level init); pipelines themselves
never call ray.init.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _init_ray(num_cpus: int | None = None) -> None:
    import ray

    from .logging_filters import install_empty_schema_drift_filter

    install_empty_schema_drift_filter()
    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            logging_level="ERROR",
            ignore_reinit_error=True,
        )


def _load_cfg(args):
    """--config sidecar (YAML/JSON) → DedupConfig; default config when
    absent (mirrors the reference's optional <model>.opts.yml)."""
    from .config import DEFAULT_CONFIG, load_config

    return load_config(args.config) if args.config else DEFAULT_CONFIG


def _read_images(table_dir: str, columns):
    from .sources.tables import read_table

    base = os.path.basename(table_dir.rstrip("/"))
    if base.endswith(".parquet"):
        import ray.data as rd

        return rd.read_parquet(table_dir, columns=columns)
    name = "images" if os.path.exists(os.path.join(table_dir, "images.parquet")) else None
    if name:
        return read_table(table_dir, name, columns=columns)
    import ray.data as rd

    return rd.read_parquet(table_dir, columns=columns)


def cmd_dedup(args) -> int:
    _init_ray(args.num_cpus)
    from .pipelines import dedup_images as flagship

    cfg = _load_cfg(args)
    if getattr(args, "cascade", False):
        if args.ckpt or getattr(args, "format", "parquet") == "wds":
            print("--cascade does not combine with --ckpt or --format wds",
                  file=sys.stderr)
            return 2
        from .pipelines.cascade import dedup_images_cascade

        images = _read_images(args.table, ["image_id", "bytes", "caption", "phash"])
        res = dedup_images_cascade(images, cfg)
        os.makedirs(args.out, exist_ok=True)
        assignment = res.assignment.materialize()
        assignment.write_parquet(os.path.join(args.out, "assignment"))
        metrics = {
            "n_rows": assignment.count(),
            "tier_drops": res.tier_drops,
            "config_hash": cfg.config_hash(),
        }
        if args.survivors:
            from .pipelines.curate import id_set_filter

            dropped = assignment.filter(expr="tier != 'survivor'")
            metrics["n_survivors"] = metrics["n_rows"] - dropped.count()
            id_set_filter(
                images, dropped, keep=False, id_col="image_id",
                limit=flagship.BROADCAST_LIMIT,
            ).write_parquet(os.path.join(args.out, "survivors"))
        with open(os.path.join(args.out, "metrics.json"), "w") as f:
            json.dump(metrics, f, indent=2)
        print(json.dumps(metrics))
        return 0
    if getattr(args, "format", "parquet") == "wds":
        # payload-only corpus: decode + pinned phash on the fly (the
        # tar shards carry no phash column); the shard is the read's
        # unit of parallelism
        from .sources.webdataset import read_webdataset
        from .stages.multimodal import phash_signatures

        images = read_webdataset(args.table)
        narrow = phash_signatures(images)
    else:
        images = _read_images(
            args.table, None if args.survivors else ["image_id", "caption", "phash"]
        )
        narrow = images.select_columns(["image_id", "caption", "phash"])
    if args.ckpt:
        table_path = args.table if args.table.endswith(".parquet") else None
        result = flagship.dedup_images_checkpointed(
            narrow,
            args.ckpt,
            cfg,
            input_fingerprint=args.table,
            table_path=table_path,
            signature_shards=args.shards if table_path else 0,
            edge_shards=args.edge_shards,
        )
    else:
        result = flagship.dedup_images(narrow, cfg)
    os.makedirs(args.out, exist_ok=True)
    result.assignment.write_parquet(os.path.join(args.out, "assignment"))
    result.edges.write_parquet(os.path.join(args.out, "edges"))
    metrics = {
        "n_rows": result.assignment.count(),
        "n_clusters_with_dups": result.n_clusters_with_dups,
        "n_nodes_clustered": result.n_nodes_clustered,
        "config_hash": cfg.config_hash(),
    }
    if args.survivors:
        surv = flagship.survivors(images, result)
        surv.write_parquet(os.path.join(args.out, "survivors"))
        metrics["n_survivors"] = metrics["n_rows"] - result.assignment.filter(
            expr="is_representative == False"
        ).count()
    with open(os.path.join(args.out, "metrics.json"), "w") as f:
        json.dump(metrics, f, indent=2)
    print(json.dumps(metrics))
    return 0


def cmd_encode(args) -> int:
    _init_ray(args.num_cpus)
    from .pipelines import dedup_images as flagship

    cfg = _load_cfg(args)
    images = _read_images(args.table, ["image_id", "caption", "phash"])
    sigs = flagship.signatures(images, cfg)
    os.makedirs(args.out, exist_ok=True)
    sigs.write_parquet(os.path.join(args.out, "signatures"))
    print(json.dumps({"n_rows": sigs.count(), "config_hash": cfg.config_hash()}))
    return 0


def cmd_dedup_docs(args) -> int:
    _init_ray(args.num_cpus)
    import ray.data as rd

    from .pipelines.dedup_docs import dedup_documents_checkpointed_parts

    cfg = _load_cfg(args)
    docs = rd.read_parquet(args.table, columns=[args.id_col, args.text_col])
    os.makedirs(args.out, exist_ok=True)
    if args.idf and args.ckpt:
        print("--idf is not supported with --ckpt yet", file=sys.stderr)
        return 2
    if args.idf:
        # IDF-weighted signatures (rare features dominate the fold);
        # the downstream banding/verify/cluster pipeline is shared
        from .pipelines.dedup_docs import dedup_documents_from_sigs
        from .stages.encode import idf_weighted_signatures

        sigs = idf_weighted_signatures(
            docs, cfg.simhash, text_col=args.text_col, id_col=args.id_col
        ).materialize()
        sigs.write_parquet(os.path.join(args.out, "signatures"))
        assignment = dedup_documents_from_sigs(
            sigs, cfg, id_col=args.id_col
        ).materialize()
        assignment.write_parquet(os.path.join(args.out, "assignment"))
        n = assignment.count()
        n_reps = assignment.filter(expr="is_representative == True").count()
        metrics = {
            "n_rows": n,
            "n_representatives": n_reps,
            "n_duplicates_removed": n - n_reps,
            "encoder": "idf-weighted",
        }
        with open(os.path.join(args.out, "metrics.json"), "w") as f:
            json.dump(metrics, f, indent=2)
        print(json.dumps(metrics))
        return 0
    if args.ckpt:
        sigs, assignment = dedup_documents_checkpointed_parts(
            docs, args.ckpt, cfg, text_col=args.text_col, id_col=args.id_col,
            input_fingerprint=args.table,
        )
        # export the committed signature stage so this run can serve as
        # an `ingest --domain docs` base, same as the non-ckpt branch
        sigs.write_parquet(os.path.join(args.out, "signatures"))
        assignment = assignment.materialize()
    else:
        # encode ONCE: export the signature table (what a later
        # `ingest --domain docs` folds against) and enter the pipeline
        # after its encode stage
        from .pipelines.dedup_docs import dedup_documents_from_sigs
        from .stages.encode import encode_signatures

        sigs = (
            encode_signatures(docs, cfg.simhash, text_col=args.text_col)
            .select_columns([args.id_col, "simhash"])
            .materialize()
        )
        sigs.write_parquet(os.path.join(args.out, "signatures"))
        assignment = dedup_documents_from_sigs(
            sigs, cfg, id_col=args.id_col
        ).materialize()
    assignment.write_parquet(os.path.join(args.out, "assignment"))
    n = assignment.count()
    n_reps = assignment.filter(expr="is_representative == True").count()
    metrics = {
        "n_rows": n,
        "n_representatives": n_reps,
        "n_duplicates_removed": n - n_reps,
        "config_hash": cfg.config_hash(),
    }
    with open(os.path.join(args.out, "metrics.json"), "w") as f:
        json.dump(metrics, f, indent=2)
    print(json.dumps(metrics))
    return 0


def cmd_paradedup(args) -> int:
    _init_ray(args.num_cpus)
    import ray.data as rd

    from .stages.paradedup import paragraph_dedup, within_doc_dedup

    if args.spans:
        if args.sep is not None or args.within_doc:
            print("--spans uses sliding token windows; it is exclusive "
                  "with --sep and --within-doc", file=sys.stderr)
            return 2
        from .stages.substring import remove_duplicate_spans

        docs = rd.read_parquet(
            args.table, columns=[args.id_col, args.text_col]
        )
        out = remove_duplicate_spans(
            docs,
            window=args.window if args.window is not None else 8,
            text_col=args.text_col,
            id_col=args.id_col,
        ).materialize()
        os.makedirs(args.out, exist_ok=True)
        out.write_parquet(os.path.join(args.out, "documents"))
        metrics = {
            "n_docs": out.count(),
            "n_tokens_kept": int(out.sum("n_kept") or 0),
            "n_tokens_removed": int(out.sum("n_removed") or 0),
            "unit": f"sliding-window={args.window or 8}",
            "keep": "cross-doc-first-span",
        }
        with open(os.path.join(args.out, "metrics.json"), "w") as f:
            json.dump(metrics, f, indent=2)
        print(json.dumps(metrics))
        return 0
    if (args.sep is None) == (args.window is None):
        print("pass exactly one of --sep or --window", file=sys.stderr)
        return 2
    docs = rd.read_parquet(args.table, columns=[args.id_col, args.text_col])
    if args.within_doc:
        out = within_doc_dedup(
            docs,
            id_col=args.id_col,
            text_col=args.text_col,
            sep=args.sep,
            window=args.window,
        ).materialize()
    else:
        out = paragraph_dedup(
            docs,
            id_col=args.id_col,
            text_col=args.text_col,
            sep=args.sep,
            window=args.window,
            keep=args.keep,
        ).materialize()
    os.makedirs(args.out, exist_ok=True)
    out.write_parquet(os.path.join(args.out, "documents"))
    n = out.count()
    n_units_kept = int(out.sum("n_kept") or 0)
    metrics = {
        "n_docs": n,
        "n_units_kept": n_units_kept,
        "keep": "within-doc-first" if args.within_doc else args.keep,
        "unit": f"sep={args.sep!r}" if args.sep is not None else f"window={args.window}",
    }
    with open(os.path.join(args.out, "metrics.json"), "w") as f:
        json.dump(metrics, f, indent=2)
    print(json.dumps(metrics))
    return 0


def cmd_curate(args) -> int:
    """Full curation pass over a raw document table (lang gate →
    quality gate → tokenset dedup → split → decontamination); with
    --ckpt the per-stage checkpoint-resumable variant runs."""
    _init_ray(args.num_cpus)
    import ray.data as rd

    from .pipelines.curate import (
        CURATION_LANGS,
        curate_documents,
        curate_documents_checkpointed,
    )

    langs = tuple(args.langs.split(",")) if args.langs else CURATION_LANGS
    docs = rd.read_parquet(args.table, columns=["doc_id", "text", "lang"])
    if args.ckpt:
        out = curate_documents_checkpointed(
            docs, args.ckpt, langs=langs, window=args.window,
            input_fingerprint=args.table,
        )
    else:
        out = curate_documents(docs, langs=langs, window=args.window)
    out = out.materialize()
    os.makedirs(args.out, exist_ok=True)
    out.write_parquet(os.path.join(args.out, "corpus"))
    counts = dict(
        out.to_pandas()["split"].value_counts()
    ) if out.count() else {}
    metrics = {
        "n_rows": out.count(),
        "splits": {k: int(v) for k, v in counts.items()},
        "langs": list(langs),
        "window": args.window,
    }
    with open(os.path.join(args.out, "metrics.json"), "w") as f:
        json.dump(metrics, f, indent=2)
    print(json.dumps(metrics))
    return 0


def cmd_ingest(args) -> int:
    """Fold a new shard into a previously-deduped corpus: reads the
    prior run's signatures/ + assignment/ outputs (from `encode` +
    `dedup`, or a previous `ingest`), writes the shard assignment, the
    base-cluster remap and the updated signature table — the hourly
    ingest loop's single command."""
    _init_ray(args.num_cpus)
    import ray.data as rd

    from .pipelines.dedup_incremental import (
        apply_remap,
        dedup_documents_incremental,
        dedup_images_incremental,
    )

    cfg = _load_cfg(args)
    # the incremental contract requires the SAME banding/encoder config
    # as the base run (module docstring) — validate against the base
    # run's recorded hash when available, loudly
    base_metrics = os.path.join(args.base, "metrics.json")
    if os.path.exists(base_metrics):
        with open(base_metrics) as f:
            base_hash = json.load(f).get("config_hash")
        if base_hash and base_hash != cfg.config_hash():
            print(
                f"error: config_hash {cfg.config_hash()} does not match the "
                f"base run's {base_hash} — incremental ingest must use the "
                "base run's exact config (pass the same --config)",
                file=sys.stderr,
            )
            return 2
    base_sigs = rd.read_parquet(os.path.join(args.base, "signatures"))
    base_assignment = rd.read_parquet(os.path.join(args.base, "assignment"))
    if getattr(args, "domain", "images") == "docs":
        id_col = args.id_col
        shard = rd.read_parquet(args.shard, columns=[args.id_col, args.text_col])
        res = dedup_documents_incremental(
            shard, base_sigs, base_assignment, cfg,
            text_col=args.text_col, id_col=args.id_col,
        )
    else:
        id_col = "image_id"
        shard = _read_images(args.shard, ["image_id", "caption", "phash"])
        res = dedup_images_incremental(shard, base_sigs, base_assignment, cfg)
    os.makedirs(args.out, exist_ok=True)
    res.assignment_new.write_parquet(os.path.join(args.out, "assignment_new"))
    updated = apply_remap(base_assignment, res.remap, id_col=id_col)
    updated.union(res.assignment_new).write_parquet(
        os.path.join(args.out, "assignment")
    )
    # the incremental result carries the shard signatures it already
    # computed — appending them avoids a second encode pass
    import pyarrow as pa

    shard_sigs = rd.from_arrow(
        pa.Table.from_pandas(res.shard_sigs, preserve_index=False)
    )
    base_sigs.union(shard_sigs).write_parquet(os.path.join(args.out, "signatures"))
    metrics = {
        "n_shard": res.assignment_new.count(),
        "n_joined_existing": res.n_joined_existing,
        "n_new_clusters": res.n_new_clusters,
        "n_base_clusters_remapped": len(res.remap),
        "config_hash": cfg.config_hash(),
    }
    with open(os.path.join(args.out, "metrics.json"), "w") as f:
        json.dump(metrics, f, indent=2)
    print(json.dumps(metrics))
    return 0


def cmd_simjoin(args) -> int:
    """Cross-table similarity JOIN: screen a probe table against a
    corpus/blocklist at est-Jaccard ≥ θ (stages/minhash
    .minhash_similarity_join).  Writes pairs/ (a = probe id, b =
    corpus id, est_jaccard) + metrics.json."""
    _init_ray(args.num_cpus)
    import ray.data as rd

    from .stages.minhash import minhash_similarity_join

    probe = rd.read_parquet(args.probe, columns=[args.id_col, args.text_col])
    corpus = rd.read_parquet(args.corpus, columns=[args.id_col, args.text_col])
    os.makedirs(args.out, exist_ok=True)
    pairs = minhash_similarity_join(
        probe,
        corpus,
        theta=args.theta,
        text_col=args.text_col,
        id_col=args.id_col,
        shingle_k=args.shingle_k,
        n_parts=args.n_parts,
    ).materialize()
    pairs.write_parquet(os.path.join(args.out, "pairs"))
    n_pairs = pairs.count()
    n_probe_matched = (
        pairs.groupby("a").count().count() if n_pairs else 0
    )
    metrics = {
        "n_pairs": n_pairs,
        "n_probe_matched": n_probe_matched,
        "theta": args.theta,
    }
    with open(os.path.join(args.out, "metrics.json"), "w") as f:
        json.dump(metrics, f, indent=2)
    print(json.dumps(metrics))
    return 0


def cmd_convert(args) -> int:
    """Format conversion: stream any supported source into any
    supported sink (distributed, partitioned output) — the on-ramp
    from a reference user's `label, message` line corpora (or
    JSONL/CSV exports) into the engine's table formats, and back."""
    _init_ray(args.num_cpus)
    import ray.data as rd

    from .sources import textlines, webdataset
    from .sources.tables import write_table

    readers = {
        "lines": textlines.read_label_lines,
        "jsonl": textlines.read_jsonl,
        "csv": textlines.read_csv_table,
        "parquet": rd.read_parquet,
        "wds": webdataset.read_webdataset,
    }
    ds = readers[args.from_format](args.src)
    if args.to_format == "wds":
        # manifest carries the row count — no second pass over the data
        mani = webdataset.write_webdataset(ds, args.out).to_pandas()
        n = int(mani["n_samples"].sum())
    elif args.to_format == "parquet":
        write_table(ds, args.out)
        n = ds.count()
    elif args.to_format == "jsonl":
        textlines.write_jsonl(ds, args.out)
        n = ds.count()
    else:  # lines
        textlines.write_label_lines(ds, args.out)
        n = ds.count()
    print(json.dumps({"rows": n, "from": args.from_format, "to": args.to_format}))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        prog="simhash_ray", description="Ray-Data-native near-duplicate engine"
    )
    p.add_argument(
        "--num-cpus", type=int, default=None,
        help="Ray session CPU cap (default: all; on a cluster use ray job submit)",
    )
    p.add_argument(
        "--config", default=None, metavar="FILE",
        help="YAML/JSON config sidecar (sections simhash/text_lsh/image_lsh "
        "+ max_cluster_rounds; the reference's <model>.opts.yml analogue). "
        "Default: built-in DEFAULT_CONFIG.",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    d = sub.add_parser("dedup", help="near-dup detect + cluster an images table")
    d.add_argument("table", help="Parquet file or directory with images.parquet")
    d.add_argument("--out", required=True, help="output directory")
    d.add_argument(
        "--format", choices=("parquet", "wds"), default="parquet",
        help="'wds' reads WebDataset tar shards and computes phash from "
        "the payload on the fly (shards need the w/h json metadata)",
    )
    d.add_argument("--ckpt", default=None, help="checkpoint dir (resumable run)")
    d.add_argument(
        "--shards", type=int, default=8,
        help="per-shard signature checkpointing granularity (with --ckpt "
        "and a single-file table; 0 disables)",
    )
    d.add_argument(
        "--edge-shards", type=int, default=0, dest="edge_shards",
        help="per-band-partition-range checkpointing of the edges stage "
        "(with --ckpt; 0 disables)",
    )
    d.add_argument(
        "--survivors", action="store_true",
        help="also write the deduplicated (representatives-only) table",
    )
    d.add_argument(
        "--cascade", action="store_true",
        help="tiered cascade instead of the joint two-space pass: exact "
        "bytes -> phash LSH -> caption SimHash, each tier pruning the "
        "next (assignment gains a 'tier' column; needs a bytes column)",
    )
    d.set_defaults(fn=cmd_dedup)

    e = sub.add_parser("encode", help="write (image_id, simhash, phash) signatures")
    e.add_argument("table")
    e.add_argument("--out", required=True)
    e.set_defaults(fn=cmd_encode)

    dd = sub.add_parser(
        "dedup-docs", help="near-dup detect + cluster a document table"
    )
    dd.add_argument("table", help="Parquet file/dir with id + text columns")
    dd.add_argument("--out", required=True, help="output directory")
    dd.add_argument("--text-col", default="text")
    dd.add_argument("--id-col", default="doc_id")
    dd.add_argument("--ckpt", default=None, help="checkpoint dir (resumable run)")
    dd.add_argument(
        "--idf", action="store_true",
        help="IDF-weighted SimHash encoder (rare features dominate the "
        "sign fold, boilerplate damped); not combinable with --ckpt",
    )
    dd.set_defaults(fn=cmd_dedup_docs)

    cu = sub.add_parser(
        "curate",
        help="curate a raw document table into a train/valid corpus",
    )
    cu.add_argument("table", help="Parquet file/dir with doc_id/text/lang")
    cu.add_argument("--out", required=True, help="output directory")
    cu.add_argument("--ckpt", default=None, help="checkpoint dir (resumable)")
    cu.add_argument("--langs", default=None, help="comma-separated whitelist")
    cu.add_argument("--window", type=int, default=8, help="decontam window")
    cu.set_defaults(fn=cmd_curate)

    pdp = sub.add_parser(
        "paradedup",
        help="paragraph-level exact dedup: drop repeated units, rebuild docs",
    )
    pdp.add_argument("table", help="Parquet file/dir with id + text columns")
    pdp.add_argument("--out", required=True, help="output directory")
    pdp.add_argument("--text-col", default="text")
    pdp.add_argument("--id-col", default="doc_id")
    pdp.add_argument("--sep", default=None, help="paragraph separator (literal)")
    pdp.add_argument(
        "--window", type=int, default=None,
        help="fixed token-window unit size (corpora without separators)",
    )
    pdp.add_argument(
        "--keep", choices=("first", "none"), default="first",
        help="first = keep first occurrence; none = drop all repeats",
    )
    pdp.add_argument(
        "--within-doc", action="store_true",
        help="dedup units only WITHIN each document (zero-shuffle "
        "streaming pass); cross-document repeats are untouched",
    )
    pdp.add_argument(
        "--spans", action="store_true",
        help="cross-document duplicated-SPAN removal (sliding "
        "--window token windows, alignment-robust; keeps the first "
        "occurrence corpus-wide and cuts the rest)",
    )
    pdp.set_defaults(fn=cmd_paradedup)

    ing = sub.add_parser(
        "ingest",
        help="fold a new shard into a deduped corpus (incremental dedup)",
    )
    ing.add_argument("shard", help="Parquet file/dir of the arriving rows")
    ing.add_argument(
        "--base", required=True,
        help="directory holding the prior run's signatures/ and assignment/ "
        "(from `encode` + `dedup` / `dedup-docs`, or a previous "
        "`ingest` --out)",
    )
    ing.add_argument(
        "--domain", choices=("images", "docs"), default="images",
        help="'docs' folds a document shard (doc_id/text) against a "
        "dedup-docs base",
    )
    ing.add_argument("--text-col", default="text",
                     help="docs domain: text column (match the base run)")
    ing.add_argument("--id-col", default="doc_id",
                     help="docs domain: id column (match the base run)")
    ing.add_argument("--out", required=True, help="output directory")
    ing.set_defaults(fn=cmd_ingest)

    sj = sub.add_parser(
        "simjoin",
        help="similarity-JOIN a probe table against a corpus/blocklist "
        "(MinHash banding, cross-side pairs only)",
    )
    sj.add_argument("probe", help="Parquet file/dir of the probe rows")
    sj.add_argument("--corpus", required=True, help="Parquet file/dir to "
                    "match against (id spaces must be disjoint)")
    sj.add_argument("--out", required=True, help="output directory")
    sj.add_argument("--theta", type=float, default=0.7,
                    help="est-Jaccard threshold")
    sj.add_argument("--text-col", default="text")
    sj.add_argument("--id-col", default="doc_id")
    sj.add_argument("--shingle-k", type=int, default=2)
    sj.add_argument("--n-parts", type=int, default=64)
    sj.set_defaults(fn=cmd_simjoin)

    cv = sub.add_parser(
        "convert",
        help="convert between corpus formats (lines/jsonl/csv/parquet/wds)",
    )
    cv.add_argument("src", help="input file or directory")
    cv.add_argument("--out", required=True, help="output directory")
    cv.add_argument(
        "--from", dest="from_format", required=True,
        choices=("lines", "jsonl", "csv", "parquet", "wds"),
        help="input format ('lines' = the reference's 'label, message' "
        "files; 'wds' = WebDataset tar shards of an image+caption table)",
    )
    cv.add_argument(
        "--to", dest="to_format", required=True,
        choices=("lines", "jsonl", "parquet", "wds"),
        help="'wds' requires image_id/bytes/fmt/caption columns",
    )
    cv.set_defaults(fn=cmd_convert)

    args = p.parse_args(argv)
    rc = args.fn(args)
    import ray

    ray.shutdown()
    return rc


if __name__ == "__main__":
    sys.exit(main())
