"""Command-line interface: generate, inspect, abstract, verify.

Usage (also via ``python -m repro``)::

    repro gen mastrovito -k 16 -o spec.v
    repro gen montgomery -k 16 -o impl.v          # flattened Fig. 1 design
    repro stats spec.v
    repro abstract spec.v -k 16
    repro verify spec.v impl.v -k 16 [--method abstraction|sat|fraig|bdd]
    repro verify spec.v impl.v -k 16 --trace out.trace.json --metrics
    repro verify spec.v impl.v -k 16 --no-prepass # skip the structural prepass
    repro check-spec impl.v -k 16 --spec "A*B"    # Lv-style membership test
    repro reveng poly unknown.v                   # recover the field polynomial
    repro reveng func unknown.v -k 16             # identify the function
    repro reveng obfuscate spec.v -o obf.v --seed 7 --check
    repro batch manifest.json --jobs 4 --timeout 120 --cache-dir .repro-cache
    repro batch manifest.json --log run.jsonl --trace-dir traces/
    repro report run.jsonl                        # aggregate a batch run log
    repro cache stats
    repro cache clear

``--quiet``/``--verbose`` tune diagnostic logging and are accepted both
before and after the subcommand. ``--trace`` writes a Chrome-trace JSON
(load in ``chrome://tracing`` or https://ui.perfetto.dev) unless the path
ends in ``.jsonl``, which selects the flat JSONL event log instead.

Netlists are the structural-Verilog subset (``.v``) or BLIF (``.blif``)
this library writes; word annotations travel in comments, so generated
files round-trip with full word-level information. Files with other
extensions are content-sniffed (BLIF ``.model`` vs Verilog ``module``).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from typing import Optional

from . import __version__, obs

from .circuits import (
    Circuit,
    CircuitError,
    read_netlist,
    write_blif,
    write_verilog,
)
from .core import extract_canonical
from .gf import GF2m, poly2
from .synth import (
    gf_adder,
    gf_squarer,
    karatsuba_multiplier,
    mastrovito_multiplier,
    montgomery_block,
    montgomery_multiplier,
)
from .algebra import parse_polynomial
from .core import word_ring_for
from .verify import (
    check_equivalence_bdd,
    check_equivalence_fraig,
    check_equivalence_sat,
    check_ideal_membership,
    verify_equivalence,
)

__all__ = ["main"]

GENERATORS = {
    "mastrovito": lambda field: mastrovito_multiplier(field),
    "montgomery": lambda field: montgomery_multiplier(field).flatten(),
    "montgomery-block": lambda field: montgomery_block(field),
    "karatsuba": lambda field: karatsuba_multiplier(field),
    "squarer": lambda field: gf_squarer(field),
    "adder": lambda field: gf_adder(field),
}


def _read_netlist(path: str) -> Circuit:
    return read_netlist(path)


def _write_netlist(circuit: Circuit, path: str) -> None:
    if path.endswith(".blif"):
        write_blif(circuit, path)
    else:
        write_verilog(circuit, path)


def _field(args: argparse.Namespace) -> GF2m:
    modulus = int(args.modulus, 0) if getattr(args, "modulus", None) else None
    return GF2m(args.k, modulus=modulus)


def _cmd_gen(args: argparse.Namespace) -> int:
    field = _field(args)
    circuit = GENERATORS[args.architecture](field)
    _write_netlist(circuit, args.output)
    print(
        f"wrote {args.architecture} over F_2^{args.k} "
        f"({circuit.num_gates()} gates) to {args.output}"
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    circuit = _read_netlist(args.netlist)
    circuit.validate()
    print(f"module:  {circuit.name}")
    print(f"inputs:  {len(circuit.inputs)}")
    print(f"outputs: {len(circuit.outputs)}")
    print(f"gates:   {circuit.num_gates()}  {circuit.gate_counts()}")
    print(f"depth:   {circuit.logic_depth()}")
    for word, bits in circuit.input_words.items():
        print(f"word in:  {word} [{len(bits)} bits]")
    for word, bits in circuit.output_words.items():
        print(f"word out: {word} [{len(bits)} bits]")
    return 0


def _cmd_abstract(args: argparse.Namespace) -> int:
    from .prepass import PrepassError, apply_prepass, resolve_prepass

    field = _field(args)
    circuit = _read_netlist(args.netlist)
    use_prepass = resolve_prepass(args.prepass)
    recorder = None
    if args.record:
        from .obs.replay import netlist_sha256

        netlist_text = _read_text(args.netlist)
        recorder = obs.redtrace.start_recording(
            path=args.record,
            op="abstract",
            params={
                "k": field.k,
                "modulus": f"{field.modulus:#x}",
                "output_word": args.output_word,
                "case2": args.case2,
                # Resolved at record time so replay never consults the live
                # REPRO_PREPASS environment.
                "prepass": use_prepass,
                "netlist": args.netlist,
                "netlist_text": netlist_text,
                "netlist_sha256": netlist_sha256(netlist_text),
            },
        )
    prepassed = None
    try:
        target = circuit
        if use_prepass:
            try:
                prepassed = apply_prepass(circuit)
                target = prepassed.circuit
            except PrepassError:
                target = circuit  # guard tripped: abstract the raw netlist
        result = extract_canonical(
            target,
            field,
            output_word=args.output_word,
            case2=args.case2,
        )
    finally:
        if recorder is not None:
            obs.redtrace.stop_recording()
    if recorder is not None:
        print(f"redtrace:   {args.record} ({recorder.emitted} event(s))")
    print(f"field:      F_2^{field.k}, P(x) = {poly2.to_string(field.modulus)}")
    if prepassed is not None:
        print(
            f"prepass:    {prepassed.gates_in} -> {prepassed.gates_out} "
            f"gate(s) ({prepassed.nets_merged} net(s) SAT-merged, "
            f"{prepassed.seconds:.3f}s)"
        )
    print(f"case:       {result.stats.case}")
    print(f"time:       {result.stats.seconds:.3f}s")
    print(f"peak terms: {result.stats.peak_terms}")
    print(f"polynomial: {result.output_word} = {result.polynomial}")
    return 0


def _export_trace(snapshot, path: str) -> None:
    if path.endswith(".jsonl"):
        obs.write_jsonl(snapshot, path)
    else:
        obs.write_chrome_trace(snapshot, path)
    print(f"trace: {path}")


def _print_prepass_metrics(outcome) -> None:
    """Per-side structural pre-reduction work from a verify outcome."""
    details = getattr(outcome, "details", None) or {}
    for side in ("spec", "impl"):
        stats = (details.get(side) or {}).get("prepass")
        if not stats:
            continue
        print(
            f"prepass[{side}]: {stats['gates_in']} -> {stats['gates_out']} "
            f"gate(s), {stats['nets_merged']} net(s) SAT-merged "
            f"({stats['sat_queries']} quer(y/ies), {stats['sat_unknown']} "
            f"unknown), {stats['seconds']:.3f}s"
        )


def _cmd_verify(args: argparse.Namespace) -> int:
    from .prepass import resolve_prepass

    field = _field(args)
    trace_path = args.trace
    use_prepass = resolve_prepass(args.prepass)
    recorder = None
    if args.record:
        if args.method != "abstraction":
            print(
                "error: --record captures reduction events, so it needs "
                "--method abstraction",
                file=sys.stderr,
            )
            return 2
        from .obs.replay import netlist_sha256

        spec_text = _read_text(args.spec)
        impl_text = _read_text(args.impl)
        recorder = obs.redtrace.start_recording(
            path=args.record,
            op="verify",
            params={
                "k": field.k,
                "modulus": f"{field.modulus:#x}",
                "method": args.method,
                "seed": args.seed,
                # Resolved at record time so replay never consults the live
                # REPRO_PREPASS environment.
                "prepass": use_prepass,
                "spec": args.spec,
                "impl": args.impl,
                "spec_text": spec_text,
                "impl_text": impl_text,
                "spec_sha256": netlist_sha256(spec_text),
                "impl_sha256": netlist_sha256(impl_text),
            },
        )
    collector = obs.enable() if (trace_path or args.metrics) else None
    try:
        with obs.span("verify", method=args.method, k=args.k):
            spec = _read_netlist(args.spec)
            impl = _read_netlist(args.impl)
            output_map = None
            if list(spec.output_words) != list(impl.output_words):
                spec_out = list(spec.output_words)
                impl_out = list(impl.output_words)
                if len(spec_out) == len(impl_out) == 1:
                    output_map = {impl_out[0]: spec_out[0]}
            if args.method == "abstraction":
                outcome = verify_equivalence(
                    spec,
                    impl,
                    field,
                    seed=args.seed,
                    prepass=use_prepass,
                )
            elif args.method == "sat":
                outcome = check_equivalence_sat(
                    spec, impl, max_conflicts=args.budget, output_map=output_map
                )
            elif args.method == "fraig":
                outcome = check_equivalence_fraig(
                    spec, impl, max_conflicts_final=args.budget, output_map=output_map
                )
            else:
                outcome = check_equivalence_bdd(
                    spec, impl, max_nodes=args.budget, output_map=output_map
                )
    finally:
        if collector is not None:
            obs.disable()
        if recorder is not None:
            obs.redtrace.stop_recording()
    print(outcome)
    if recorder is not None:
        print(f"redtrace: {args.record} ({recorder.emitted} event(s))")
    if collector is not None:
        snapshot = collector.snapshot()
        if trace_path:
            _export_trace(snapshot, trace_path)
        if args.metrics:
            print(obs.summary_table(snapshot))
            _print_prepass_metrics(outcome)
    if outcome.status == "equivalent":
        return 0
    if outcome.status == "not_equivalent":
        return 1
    return 2


def _cmd_check_spec(args: argparse.Namespace) -> int:
    field = _field(args)
    circuit = _read_netlist(args.netlist)
    ring = word_ring_for(field, sorted(circuit.input_words))
    spec = parse_polynomial(args.spec, ring)
    outcome = check_ideal_membership(
        circuit, field, spec, output_word=args.output_word
    )
    print(f"spec: Z = {spec}")
    print(outcome)
    return 0 if outcome.equivalent else 1


def _reveng_cache(args: argparse.Namespace):
    from .jobs import CanonicalPolyCache, default_cache_dir

    if getattr(args, "no_cache", False):
        return None
    return CanonicalPolyCache(args.cache_dir or default_cache_dir())


def _cmd_reveng_poly(args: argparse.Namespace) -> int:
    from .reveng import recover_polynomial

    circuit = _read_netlist(args.netlist)
    result = recover_polynomial(
        circuit,
        degree=args.m,
        spec_form=args.spec_form,
        case2=args.case2,
        cache=_reveng_cache(args),
        all_candidates=args.all,
        limit=args.limit,
        prepass=args.prepass,
    )
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
        return 0 if result.matches else 1
    print(f"degree:     {result.degree}  (spec form: Z = {args.spec_form})")
    print(
        f"candidates: {result.candidates_tried} probed, "
        f"{result.cache_hits} from cache, {result.seconds:.3f}s"
    )
    if result.matches:
        for modulus in result.matches:
            print(f"match:      P(x) = {poly2.to_string(modulus)}  ({modulus:#x})")
        if not result.exhausted and not args.all:
            print("(stopped at the first match; use --all for a full census)")
        return 0
    qualifier = "" if result.exhausted else " probed (census incomplete)"
    print(f"no candidate modulus{qualifier} explains this netlist "
          f"as Z = {args.spec_form}")
    return 1


def _cmd_reveng_func(args: argparse.Namespace) -> int:
    from .reveng import identify_function

    field = _field(args)
    circuit = _read_netlist(args.netlist)
    forms = [f.strip() for f in args.forms.split(",") if f.strip()] if args.forms else ()
    result = identify_function(
        circuit,
        field,
        forms=forms,
        case2=args.case2,
        cache=_reveng_cache(args),
        prepass=args.prepass,
    )
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
        return 0 if result.matches else 1
    print(f"field:          F_2^{field.k}, P(x) = {poly2.to_string(field.modulus)}")
    print(f"polynomial:     Z = {result.polynomial}  [{result.terms} term(s)]")
    if result.matches:
        print(f"identified as:  {', '.join(result.matches)}")
        return 0
    print(f"unidentified:   no spec form matches (structure: "
          f"{result.classification})")
    return 1


def _cmd_reveng_obfuscate(args: argparse.Namespace) -> int:
    import random as random_module

    from .circuits.simulate import simulate_words
    from .reveng import obfuscate

    circuit = _read_netlist(args.netlist)
    passes = None
    if args.passes:
        passes = [p.strip() for p in args.passes.split(",") if p.strip()]
    variant = obfuscate(
        circuit,
        passes=passes,
        seed=args.seed,
        fraction=args.fraction,
    )
    if args.check:
        rng = random_module.Random(args.seed)
        lanes = 64
        stimuli = {
            word: [rng.getrandbits(len(bits)) for _ in range(lanes)]
            for word, bits in circuit.input_words.items()
        }
        if simulate_words(variant.circuit, stimuli) != simulate_words(circuit, stimuli):
            print("error: obfuscated variant diverges from the original "
                  "(this is a bug — please report it)", file=sys.stderr)
            return 2
    _write_netlist(variant.circuit, args.output)
    check_note = f", simulation-checked on 64 vectors" if args.check else ""
    print(
        f"wrote {variant.name} ({variant.gates_before} -> "
        f"{variant.gates_after} gates via {', '.join(variant.passes)}"
        f"{check_note}) to {args.output}"
    )
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    from .jobs import default_cache_dir, load_manifest, run_batch

    manifest = load_manifest(args.manifest)
    cache_dir = None
    if not args.no_cache:
        cache_dir = args.cache_dir or str(default_cache_dir())
    cost_model = None
    if args.cost_model:
        from .obs.costmodel import CostModel

        try:
            cost_model = CostModel.load(args.cost_model)
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: cannot load cost model: {exc}", file=sys.stderr)
            return 2
    report = run_batch(
        manifest,
        workers=args.jobs,
        cache_dir=cache_dir,
        default_timeout=args.timeout,
        log_path=args.log,
        seed=args.seed,
        retries=args.retries,
        trace_dir=args.trace_dir,
        cost_model=cost_model,
    )
    for result in report.results:
        verdict = result.get("verdict", "")
        extra = f"  {verdict}" if verdict else ""
        seconds = result.get("seconds")
        timing = f"  {seconds:.3f}s" if isinstance(seconds, (int, float)) else ""
        error = result.get("error")
        note = f"  ({error})" if error and result["status"] != "ok" else ""
        print(f"{result['id']:<24} {result['status']:<8}{extra}{timing}{note}")
    counts = ", ".join(f"{k}={v}" for k, v in sorted(report.counts.items()))
    print(
        f"batch: {len(report.results)} job(s) on {report.workers} worker(s) "
        f"in {report.wall_seconds:.2f}s  [{counts}]"
    )
    if cache_dir:
        breakdown = ""
        if report.cache_hits:
            breakdown = (
                f" [{report.cache_hits_canonical} canonical-key, "
                f"{report.cache_hits_raw} raw-key]"
            )
        print(
            f"cache: {report.cache_hits} hit(s){breakdown}, "
            f"{report.cache_misses} miss(es) ({cache_dir})"
        )
    if args.trace_dir:
        traced = sum(1 for r in report.results if r.get("trace_file"))
        print(f"traces: {traced} file(s) in {args.trace_dir}")
    if report.log_path:
        print(f"run log: {report.log_path}")
    return 0 if report.ok else 1


def _cmd_report(args: argparse.Namespace) -> int:
    cost_model = None
    if args.cost_model:
        from .obs.costmodel import CostModel

        try:
            cost_model = CostModel.load(args.cost_model)
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: cannot load cost model: {exc}", file=sys.stderr)
            return 2
    try:
        aggregate = obs.aggregate_run_log(args.runlog, cost_model=cost_model)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(aggregate, indent=2, sort_keys=True))
    else:
        print(obs.format_report(aggregate))
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from .jobs import CanonicalPolyCache, default_cache_dir

    cache = CanonicalPolyCache(args.cache_dir or default_cache_dir())
    if args.cache_command == "clear":
        removed = cache.clear()
        print(f"cleared {removed} cached polynomial(s) from {cache.root}")
        return 0
    stats = cache.stats()
    print(f"cache dir: {stats['cache_dir']}")
    print(f"entries:   {stats['entries']}")
    print(f"size:      {stats['bytes'] / 1024.0:.1f} KiB")
    print(f"hits:      {stats['hits']}")
    # Hits split by which key kind answered: "canonical" = the prepassed
    # canonical-structure key (structural variants collapse onto it), "raw"
    # = the raw-structure key (prepass off, or fallback hits on entries
    # written before the prepass existed). Counters predating the split
    # leave both at 0 while hits is nonzero.
    print(f"  canonical-key: {stats['hits_canonical']}")
    print(f"  raw-key:       {stats['hits_raw']}")
    print(f"misses:    {stats['misses']}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .jobs import default_cache_dir
    from .service import ServiceConfig, serve

    cache_dir = None
    if not args.no_cache:
        cache_dir = args.cache_dir or str(default_cache_dir())
    prewarm = []
    if args.prewarm:
        for spec in args.prewarm.split(","):
            spec = spec.strip()
            if not spec:
                continue
            try:
                prewarm.append((int(spec, 0), None))
            except ValueError:
                print(f"error: invalid --prewarm field degree {spec!r}",
                      file=sys.stderr)
                return 2
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_capacity=args.queue_capacity,
        cache_dir=cache_dir,
        retain=args.retain,
        drain_timeout=args.drain_timeout,
        max_request_bytes=args.max_request_mb * 1024 * 1024,
        seed=args.seed,
        prewarm=prewarm,
        port_file=args.port_file,
        cost_model=args.cost_model,
        trace_ring=args.trace_ring,
        dispatch=args.dispatch,
        shard_of=args.shard_of,
    )
    return serve(config)


def _cmd_route(args: argparse.Namespace) -> int:
    from .service.router import RouterConfig, route

    backends = [b.strip() for b in args.backends.split(",") if b.strip()]
    if not backends:
        print("error: --backends needs at least one host:port", file=sys.stderr)
        return 2
    for backend in backends:
        host, _, port = backend.rpartition(":")
        if not host or not port.isdigit():
            print(f"error: invalid backend address {backend!r} "
                  "(expected host:port)", file=sys.stderr)
            return 2
    config = RouterConfig(
        backends=backends,
        host=args.host,
        port=args.port,
        vnodes=args.vnodes,
        health_interval=args.health_interval,
        retry_budget=args.retry_budget,
        port_file=args.port_file,
    )
    return route(config)


def _cmd_replay(args: argparse.Namespace) -> int:
    from .obs.replay import ReplayError, diff_events, replay_file

    try:
        recorded, fresh = replay_file(args.trace)
    except (ReplayError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    header = recorded[0]
    params = header.get("params") or {}
    print(
        f"replay: op={header.get('op')} k={params.get('k')}  "
        f"recorded {len(recorded)} event(s), fresh run {len(fresh)} event(s)"
    )
    if not args.diff:
        return 0
    divergence = diff_events(recorded, fresh)
    if divergence is None:
        print(f"diff: identical ({len(recorded)} event(s))")
        return 0
    index, rec, new = divergence
    print(f"diff: divergence at event {index}", file=sys.stderr)
    rec_text = (
        json.dumps(rec, sort_keys=True) if rec is not None else "(stream ended)"
    )
    new_text = (
        json.dumps(new, sort_keys=True) if new is not None else "(stream ended)"
    )
    print(f"  recorded: {rec_text}", file=sys.stderr)
    print(f"  replayed: {new_text}", file=sys.stderr)
    return 1


def _cmd_costmodel(args: argparse.Namespace) -> int:
    from .obs.costmodel import CostModel, collect_job_records

    if args.costmodel_command == "fit":
        try:
            records = collect_job_records(args.runlogs)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if not records:
            print(
                "error: no completed job records found in the given run logs",
                file=sys.stderr,
            )
            return 2
        model = CostModel.fit(records)
        model.save(args.output)
        print(f"cost model: {args.output} ({len(records)} job record(s))")
        for op in sorted(model.ops):
            entry = model.ops[op]
            buckets = entry.get("buckets") or {}
            bucket_text = ", ".join(
                f"k={k}:{info['mean']:.4f}s(n={info['n']})"
                for k, info in sorted(buckets.items(), key=lambda i: int(i[0]))
            )
            r2 = (entry.get("r2") or {}).get("total")
            fit_text = f"  r2={r2:.3f}" if isinstance(r2, (int, float)) else ""
            print(
                f"  {op}: n={entry['n']} mean={entry['mean']:.4f}s{fit_text}"
                + (f"  [{bucket_text}]" if bucket_text else "")
            )
        return 0
    # predict
    try:
        model = CostModel.load(args.model)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot load cost model: {exc}", file=sys.stderr)
        return 2
    value = model.predict(
        args.op, k=args.k, gates=args.gates, cones=args.cones, phase=args.phase
    )
    if value is None:
        print(
            f"error: model has no estimate for op={args.op!r} "
            f"(phase={args.phase!r})",
            file=sys.stderr,
        )
        return 2
    print(f"predicted: {value:.6f}s  (op={args.op} phase={args.phase})")
    return 0


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise CircuitError(f"cannot read netlist {path}: {exc}") from None


def _submit_exit_code(doc: dict) -> int:
    if doc.get("status") != "done":
        return 2
    verdict = (doc.get("result") or {}).get("verdict")
    if verdict == "equivalent":
        return 0
    if verdict == "not_equivalent":
        return 1
    return 0  # abstract jobs have no verdict; done is success


def _print_job_outcome(doc: dict) -> None:
    status = doc.get("status")
    result = doc.get("result") or {}
    if status == "done":
        verdict = result.get("verdict")
        if verdict is not None:
            print(f"{doc['id']}: {verdict.upper().replace('_', '-')}")
            if result.get("counterexample"):
                print(f"  counterexample: {result['counterexample']}")
        elif result.get("mode") == "poly":
            recovered = result.get("recovered")
            if recovered:
                print(f"{doc['id']}: recovered P(x) = {recovered} "
                      f"({result.get('candidates_tried')} candidate(s), "
                      f"{result.get('cache_hits')} cached)")
            else:
                print(f"{doc['id']}: no matching modulus "
                      f"({result.get('candidates_tried')} candidate(s) probed)")
        elif result.get("mode") == "func":
            identified = result.get("identified")
            if identified:
                print(f"{doc['id']}: identified as {identified}")
            else:
                print(f"{doc['id']}: unidentified "
                      f"(structure: {result.get('classification')})")
        else:
            print(f"{doc['id']}: done")
            if result.get("polynomial"):
                print(f"  {result['polynomial']}")
        if result.get("seconds") is not None:
            hits = [
                side for side in ("spec", "impl")
                if result.get(f"{side}_cache_hit")
            ]
            note = f" (cache hit: {', '.join(hits)})" if hits else ""
            print(f"  {result['seconds']:.3f}s{note}")
    else:
        print(f"{doc['id']}: {status}  ({doc.get('error', 'no result')})")


def _cmd_submit(args: argparse.Namespace) -> int:
    from .service import ServiceClient, ServiceError

    client = ServiceClient(host=args.host, port=args.port, timeout=args.timeout)
    if args.port_file:
        with open(args.port_file, "r", encoding="utf-8") as handle:
            client = ServiceClient.from_address(
                handle.read(), timeout=args.timeout
            )

    try:
        if args.manifest:
            return _submit_manifest(client, args)
        if not (args.spec and args.impl and args.k is not None):
            print(
                "error: submit needs either SPEC IMPL -k K or --manifest",
                file=sys.stderr,
            )
            return 2
        submission = client.submit_verify(
            _read_text(args.spec),
            _read_text(args.impl),
            args.k,
            modulus=int(args.modulus, 0) if args.modulus else None,
            case2=args.case2,
            priority=args.priority,
            timeout=args.deadline,
            spec_name=args.spec,
            impl_name=args.impl,
        )
        job_id = submission["id"]
        if submission.get("coalesced"):
            print(f"coalesced onto in-flight job {job_id}")
        else:
            print(f"submitted job {job_id}")
        if args.no_wait:
            return 0
        doc = client.wait_for(job_id, timeout=args.poll_timeout)
        _print_job_outcome(doc)
        return _submit_exit_code(doc)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TimeoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        client.close()


def _submit_manifest(client, args: argparse.Namespace) -> int:
    """Submit every verify/abstract job of a batch manifest to the daemon."""
    from .jobs import load_manifest

    manifest = load_manifest(args.manifest)
    submitted = []  # (job id from manifest, service job id)
    for job in manifest.jobs:
        params = job.params
        if job.type == "verify":
            submission = client.submit_verify(
                _read_text(params["spec"]),
                _read_text(params["impl"]),
                params["k"],
                modulus=params.get("modulus"),
                case2=params.get("case2", "linearized"),
                priority=args.priority,
                timeout=args.deadline,
                spec_name=params["spec"],
                impl_name=params["impl"],
            )
        elif job.type == "abstract":
            submission = client.submit_abstract(
                _read_text(params["netlist"]),
                params["k"],
                modulus=params.get("modulus"),
                case2=params.get("case2", "linearized"),
                output_word=params.get("output_word"),
                priority=args.priority,
                timeout=args.deadline,
                netlist_name=params["netlist"],
            )
        elif job.type == "reveng":
            submission = client.submit_reveng(
                _read_text(params["netlist"]),
                mode=params.get("mode", "poly"),
                m=params.get("m"),
                k=params.get("k"),
                modulus=params.get("modulus"),
                spec_form=params.get("spec_form"),
                all_candidates=bool(params.get("all", False)),
                limit=params.get("limit"),
                case2=params.get("case2", "linearized"),
                priority=args.priority,
                timeout=args.deadline,
                netlist_name=params["netlist"],
            )
        else:
            print(f"{job.id:<24} skipped  (job type {job.type!r} is not "
                  "servable; use repro batch)")
            continue
        submitted.append((job.id, submission["id"]))
        note = "  (coalesced)" if submission.get("coalesced") else ""
        print(f"{job.id:<24} -> {submission['id']}{note}")
    if args.no_wait:
        return 0
    worst = 0
    for manifest_id, job_id in submitted:
        doc = client.wait_for(job_id, timeout=args.poll_timeout)
        print(f"--- {manifest_id}")
        _print_job_outcome(doc)
        worst = max(worst, _submit_exit_code(doc))
    return worst


def _setup_logging(args: argparse.Namespace) -> None:
    """Configure stderr logging from ``--quiet``/``--verbose``.

    Both flags default to ``argparse.SUPPRESS`` so they can be given before
    or after the subcommand without the subparser's default clobbering a
    value parsed by the main parser.
    """
    if getattr(args, "quiet", False):
        level = logging.ERROR
    elif getattr(args, "verbose", False):
        level = logging.DEBUG
    else:
        level = logging.WARNING
    logging.basicConfig(
        level=level, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )
    logging.getLogger("repro").setLevel(level)


def build_parser() -> argparse.ArgumentParser:
    log_flags = argparse.ArgumentParser(add_help=False)
    log_flags.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        default=argparse.SUPPRESS,
        help="only log errors",
    )
    log_flags.add_argument(
        "--verbose",
        action="store_true",
        default=argparse.SUPPRESS,
        help="log debug diagnostics (per-job timings, cache traffic)",
    )
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Word-level abstraction & equivalence verification of "
        "Galois field circuits (DAC 2014 reproduction)",
        parents=[log_flags],
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, **kwargs) -> argparse.ArgumentParser:
        return sub.add_parser(name, parents=[log_flags], **kwargs)

    def add_prepass_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--prepass",
            dest="prepass",
            action="store_true",
            default=None,
            help="force the structural pre-reduction on (canonicalize + "
            "SAT-sweep the netlist before abstraction; default follows "
            "$REPRO_PREPASS, which is on)",
        )
        p.add_argument(
            "--no-prepass",
            dest="prepass",
            action="store_false",
            help="abstract the raw netlist, skipping the pre-reduction",
        )

    gen = add_command("gen", help="generate a benchmark netlist")
    gen.add_argument("architecture", choices=sorted(GENERATORS))
    gen.add_argument("-k", type=int, required=True, help="field degree")
    gen.add_argument("--modulus", help="irreducible P(x) as an int literal")
    gen.add_argument("-o", "--output", required=True, help=".v or .blif path")
    gen.set_defaults(func=_cmd_gen)

    stats = add_command("stats", help="print netlist statistics")
    stats.add_argument("netlist")
    stats.set_defaults(func=_cmd_stats)

    abstract = add_command(
        "abstract", help="derive the canonical word-level polynomial"
    )
    abstract.add_argument("netlist")
    abstract.add_argument("-k", type=int, required=True)
    abstract.add_argument("--modulus")
    abstract.add_argument("--output-word", default=None)
    abstract.add_argument(
        "--case2", choices=["linearized", "groebner"], default="linearized"
    )
    abstract.add_argument(
        "--record",
        default=None,
        metavar="PATH",
        help="record a REDTRACE/1 reduction trace (JSONL) replayable with "
        "`repro replay`",
    )
    add_prepass_flags(abstract)
    abstract.set_defaults(func=_cmd_abstract)

    verify = add_command("verify", help="prove or refute equivalence")
    verify.add_argument("spec")
    verify.add_argument("impl")
    verify.add_argument("-k", type=int, required=True)
    verify.add_argument("--modulus")
    verify.add_argument(
        "--method", choices=["abstraction", "sat", "fraig", "bdd"], default="abstraction"
    )
    verify.add_argument(
        "--budget",
        type=int,
        default=1_000_000,
        help="SAT conflict / BDD node budget for the bit-level methods",
    )
    verify.add_argument(
        "--seed",
        type=int,
        default=None,
        help="seed for the randomized counterexample search (reproducible runs)",
    )
    verify.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a span trace: Chrome-trace JSON (chrome://tracing), or "
        "a flat JSONL event log if PATH ends in .jsonl",
    )
    verify.add_argument(
        "--metrics",
        action="store_true",
        help="print per-span timings and algebraic work counters afterwards",
    )
    verify.add_argument(
        "--record",
        default=None,
        metavar="PATH",
        help="record a REDTRACE/1 reduction trace (JSONL) replayable with "
        "`repro replay`; abstraction method only",
    )
    add_prepass_flags(verify)
    verify.set_defaults(func=_cmd_verify)

    batch = add_command(
        "batch",
        help="run a manifest of verification jobs on a parallel worker pool",
    )
    batch.add_argument("manifest", help="JSON job manifest (see repro.jobs)")
    batch.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="W",
        help="number of worker processes (default 1)",
    )
    batch.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        metavar="S",
        help="per-job wall-clock deadline in seconds (default 300; "
        "manifest jobs may override)",
    )
    batch.add_argument(
        "--cache-dir",
        default=None,
        metavar="D",
        help="canonical-polynomial cache directory "
        "(default $REPRO_CACHE_DIR or ~/.cache/repro/canonical)",
    )
    batch.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the canonical-polynomial cache for this run",
    )
    batch.add_argument(
        "--log",
        default=None,
        metavar="PATH",
        help="JSONL run log path (default: no log file)",
    )
    batch.add_argument(
        "--seed",
        type=int,
        default=None,
        help="base seed; job i uses seed+i for its counterexample search",
    )
    batch.add_argument(
        "--retries",
        type=int,
        default=None,
        help="crash retries per job (overrides manifest; default 1)",
    )
    batch.add_argument(
        "--trace-dir",
        default=None,
        metavar="D",
        help="write one Chrome-trace JSON per job into this directory",
    )
    batch.add_argument(
        "--cost-model",
        default=None,
        metavar="PATH",
        help="fitted cost model (repro costmodel fit); orders jobs "
        "shortest-predicted-first and logs predicted_seconds per job",
    )
    batch.set_defaults(func=_cmd_batch)

    report = add_command(
        "report",
        help="aggregate a batch JSONL run log into per-phase timings and "
        "work counters",
    )
    report.add_argument("runlog", help="run log written by batch --log")
    report.add_argument(
        "--json", action="store_true", help="emit the aggregate as JSON"
    )
    report.add_argument(
        "--cost-model",
        default=None,
        metavar="PATH",
        help="fitted cost model used to score predicted-vs-actual runtimes "
        "for jobs that were not run with batch --cost-model",
    )
    report.set_defaults(func=_cmd_report)

    replay = add_command(
        "replay",
        help="re-execute a recorded REDTRACE reduction trace deterministically",
    )
    replay.add_argument("trace", help="REDTRACE/1 JSONL file (verify --record)")
    replay.add_argument(
        "--diff",
        action="store_true",
        help="compare the fresh event stream record-by-record against the "
        "recording; exit 1 at the first divergence, printing both records",
    )
    replay.set_defaults(func=_cmd_replay)

    costmodel = add_command(
        "costmodel",
        help="fit or query a per-phase job cost model from batch run logs",
    )
    costmodel_sub = costmodel.add_subparsers(
        dest="costmodel_command", required=True
    )
    costmodel_fit = costmodel_sub.add_parser(
        "fit", help="fit a cost model from one or more batch run logs"
    )
    costmodel_fit.add_argument(
        "runlogs", nargs="+", help="JSONL run logs written by batch --log"
    )
    costmodel_fit.add_argument(
        "-o", "--output", required=True, metavar="PATH",
        help="where to write the fitted model (JSON)",
    )
    costmodel_fit.set_defaults(func=_cmd_costmodel)
    costmodel_predict = costmodel_sub.add_parser(
        "predict", help="query a fitted model for a predicted runtime"
    )
    costmodel_predict.add_argument("model", help="fitted model JSON")
    costmodel_predict.add_argument("--op", required=True, help="job type")
    costmodel_predict.add_argument("--k", type=int, default=None)
    costmodel_predict.add_argument("--gates", type=int, default=None)
    costmodel_predict.add_argument("--cones", type=int, default=None)
    costmodel_predict.add_argument(
        "--phase",
        default="total",
        help="phase to predict (default total; e.g. spoly_reduction)",
    )
    costmodel_predict.set_defaults(func=_cmd_costmodel)

    cache = add_command(
        "cache", help="inspect or clear the canonical-polynomial cache"
    )
    cache.add_argument("cache_command", choices=["stats", "clear"])
    cache.add_argument(
        "--cache-dir",
        default=None,
        metavar="D",
        help="cache directory (default $REPRO_CACHE_DIR or "
        "~/.cache/repro/canonical)",
    )
    cache.set_defaults(func=_cmd_cache)

    check_spec = add_command(
        "check-spec",
        help="verify a circuit against a textual spec polynomial "
        "(ideal-membership, Lv et al. style)",
    )
    check_spec.add_argument("netlist")
    check_spec.add_argument("-k", type=int, required=True)
    check_spec.add_argument("--modulus")
    check_spec.add_argument(
        "--spec", required=True, help='e.g. "A*B" or "A^2 + 3*B"'
    )
    check_spec.add_argument("--output-word", default=None)
    check_spec.set_defaults(func=_cmd_check_spec)

    reveng = add_command(
        "reveng",
        help="reverse-engineer a netlist: recover P(x), identify the "
        "function, or generate obfuscated variants",
    )
    reveng_sub = reveng.add_subparsers(dest="reveng_command", required=True)

    def add_reveng_cache_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--cache-dir",
            default=None,
            metavar="D",
            help="canonical-polynomial cache directory "
            "(default $REPRO_CACHE_DIR or ~/.cache/repro/canonical)",
        )
        p.add_argument(
            "--no-cache",
            action="store_true",
            help="disable the canonical-polynomial cache for this run",
        )
        p.add_argument(
            "--case2", choices=["linearized", "groebner"], default="linearized"
        )
        add_prepass_flags(p)
        p.add_argument("--json", action="store_true", help="emit JSON")

    reveng_poly = reveng_sub.add_parser(
        "poly",
        parents=[log_flags],
        help="recover an unknown field polynomial by sweeping candidate "
        "irreducibles (lowest weight first)",
    )
    reveng_poly.add_argument("netlist")
    reveng_poly.add_argument(
        "-m",
        type=int,
        default=None,
        help="field degree (default: inferred from the netlist's word widths)",
    )
    reveng_poly.add_argument(
        "--spec-form",
        default="mul",
        help="expected function under the true modulus (default mul: Z = A*B)",
    )
    reveng_poly.add_argument(
        "--all",
        action="store_true",
        help="census every matching modulus instead of stopping at the first",
    )
    reveng_poly.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="N",
        help="probe at most N candidate moduli",
    )
    add_reveng_cache_flags(reveng_poly)
    reveng_poly.set_defaults(func=_cmd_reveng_poly)

    reveng_func = reveng_sub.add_parser(
        "func",
        parents=[log_flags],
        help="identify which arithmetic function a netlist computes over a "
        "known field",
    )
    reveng_func.add_argument("netlist")
    reveng_func.add_argument("-k", type=int, required=True, help="field degree")
    reveng_func.add_argument("--modulus", help="irreducible P(x) as an int literal")
    reveng_func.add_argument(
        "--forms",
        default=None,
        metavar="F1,F2,...",
        help="restrict the spec-form library (default: every form whose "
        "arity matches)",
    )
    add_reveng_cache_flags(reveng_func)
    reveng_func.set_defaults(func=_cmd_reveng_func)

    reveng_obf = reveng_sub.add_parser(
        "obfuscate",
        parents=[log_flags],
        help="write a semantics-preserving obfuscated variant of a netlist",
    )
    reveng_obf.add_argument("netlist")
    reveng_obf.add_argument("-o", "--output", required=True, help=".v or .blif path")
    reveng_obf.add_argument(
        "--passes",
        default=None,
        metavar="P1,P2,...",
        help="comma-separated pass list: demorgan, xor_expand, dead_logic, "
        "buffer_chains, rename, shuffle (default: all, in that order)",
    )
    reveng_obf.add_argument(
        "--seed", type=int, default=0, help="variant seed (default 0)"
    )
    reveng_obf.add_argument(
        "--fraction",
        type=float,
        default=1.0,
        help="fraction of each pass's eligible gates to rewrite (default 1.0)",
    )
    reveng_obf.add_argument(
        "--check",
        action="store_true",
        help="simulate 64 random word vectors and refuse to write a "
        "variant that diverges",
    )
    reveng_obf.set_defaults(func=_cmd_reveng_obfuscate)

    serve = add_command(
        "serve",
        help="run the resident verification daemon (HTTP API on /v1)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=8014,
        help="listen port (0 = ephemeral; see --port-file; default 8014)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="verification worker threads (default 2)",
    )
    serve.add_argument(
        "--queue-capacity",
        type=int,
        default=64,
        metavar="N",
        help="queued-job limit before submissions get 429 (default 64)",
    )
    serve.add_argument(
        "--cache-dir",
        default=None,
        metavar="D",
        help="canonical-polynomial cache directory "
        "(default $REPRO_CACHE_DIR or ~/.cache/repro/canonical)",
    )
    serve.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the canonical-polynomial cache",
    )
    serve.add_argument(
        "--retain",
        type=int,
        default=1024,
        metavar="N",
        help="finished job records kept for polling (default 1024)",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        metavar="S",
        help="seconds to finish queued work after SIGTERM (default 30)",
    )
    serve.add_argument(
        "--max-request-mb",
        type=int,
        default=32,
        metavar="MB",
        help="largest accepted request body (default 32 MiB)",
    )
    serve.add_argument(
        "--prewarm",
        default=None,
        metavar="K,K,...",
        help="comma-separated field degrees whose GF tables are built "
        "before the first request (e.g. 32,64,128)",
    )
    serve.add_argument(
        "--seed",
        type=int,
        default=None,
        help="seed for counterexample searches (reproducible verdicts)",
    )
    serve.add_argument(
        "--port-file",
        default=None,
        metavar="PATH",
        help="write host:port here once listening (ephemeral-port handshake)",
    )
    serve.add_argument(
        "--cost-model",
        default=None,
        metavar="PATH",
        help="fitted cost model (repro costmodel fit) seeding per-(op,k) "
        "Retry-After estimates before their buckets have seen a job",
    )
    serve.add_argument(
        "--trace-ring",
        type=int,
        default=20000,
        metavar="N",
        help="flight-recorder ring size for REDTRACE events "
        "(0 disables; default 20000)",
    )
    serve.add_argument(
        "--dispatch",
        choices=("plane", "inline"),
        default="plane",
        help="where job bodies run: the resident worker plane (process "
        "isolation + parallelism, default) or inline on dispatcher threads",
    )
    serve.add_argument(
        "--shard-of",
        default=None,
        metavar="I/N",
        help="label this daemon shard I of an N-shard cluster behind "
        "repro route (shows on /healthz and /metrics)",
    )
    serve.set_defaults(func=_cmd_serve)

    route = add_command(
        "route",
        help="run the consistent-hash shard router over repro serve daemons",
        description="Front door for a fleet of repro serve daemons: "
        "consistent-hashes each submission's request key onto a backend "
        "shard so identical work always hits the same warm cache, fails "
        "over when a shard dies, and aggregates /metrics across the "
        "fleet. Responses are proxied byte-for-byte.",
    )
    route.add_argument(
        "--backends",
        required=True,
        metavar="H:P,H:P,...",
        help="comma-separated backend daemon addresses (host:port)",
    )
    route.add_argument("--host", default="127.0.0.1")
    route.add_argument(
        "--port",
        type=int,
        default=8013,
        help="listen port (0 = ephemeral; see --port-file; default 8013)",
    )
    route.add_argument(
        "--vnodes",
        type=int,
        default=64,
        metavar="N",
        help="virtual nodes per backend on the hash ring (default 64)",
    )
    route.add_argument(
        "--health-interval",
        type=float,
        default=2.0,
        metavar="S",
        help="seconds between /readyz probes of each backend (default 2)",
    )
    route.add_argument(
        "--retry-budget",
        type=int,
        default=2,
        metavar="N",
        help="attempts per backend on 429/503 before failing over "
        "(default 2, honouring Retry-After)",
    )
    route.add_argument(
        "--port-file",
        default=None,
        metavar="PATH",
        help="write host:port here once listening (ephemeral-port handshake)",
    )
    route.set_defaults(func=_cmd_route)

    submit = add_command(
        "submit",
        help="submit work to a running repro serve daemon",
        description="Submit one equivalence check (SPEC IMPL -k K, same "
        "netlist formats as repro verify) or a whole batch manifest "
        "(--manifest, same schema as repro batch) to a daemon, and wait "
        "for verdicts. Exit codes match repro verify: 0 equivalent, "
        "1 not equivalent, 2 error.",
    )
    submit.add_argument("spec", nargs="?", help="spec netlist (.v/.blif)")
    submit.add_argument("impl", nargs="?", help="impl netlist (.v/.blif)")
    submit.add_argument("-k", type=int, default=None, help="field degree")
    submit.add_argument("--modulus", help="irreducible P(x) as an int literal")
    submit.add_argument(
        "--case2", choices=["linearized", "groebner"], default="linearized"
    )
    submit.add_argument(
        "--manifest",
        default=None,
        metavar="PATH",
        help="submit every verify/abstract job of a batch manifest instead",
    )
    submit.add_argument("--host", default="127.0.0.1")
    submit.add_argument("--port", type=int, default=8014)
    submit.add_argument(
        "--port-file",
        default=None,
        metavar="PATH",
        help="read the daemon address from this file (written by "
        "repro serve --port-file)",
    )
    submit.add_argument(
        "--priority",
        type=int,
        default=5,
        help="queue priority, 0 (most urgent) to 9 (default 5)",
    )
    submit.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="S",
        help="server-side deadline: expire the job if it cannot start "
        "within S seconds of submission",
    )
    submit.add_argument(
        "--timeout",
        type=float,
        default=60.0,
        metavar="S",
        help="HTTP request timeout (default 60)",
    )
    submit.add_argument(
        "--poll-timeout",
        type=float,
        default=600.0,
        metavar="S",
        help="give up waiting for a verdict after S seconds (default 600)",
    )
    submit.add_argument(
        "--no-wait",
        action="store_true",
        help="print the job id and exit without waiting for the verdict",
    )
    submit.set_defaults(func=_cmd_submit)
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    _setup_logging(args)
    from .jobs.manifest import ManifestError

    try:
        return args.func(args)
    except (CircuitError, ManifestError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
