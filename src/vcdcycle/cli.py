"""Command-line surface: dataset access, verification runs, certificates.

Each command parses its arguments, calls the library, prints and writes;
every certificate is built by a `serialize` builder and checked by
`certs.check_certificate` before the command reports it.

Exit status: 0 when the requested computation or certificate is valid,
1 when a verification fails, 2 on bad input (an unreadable or unwritable
path included), 3 when a search budget is exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from json.encoder import encode_basestring_ascii

from . import certs, cycle as cy, data, polytope as pt, repro, serialize as ser, voronoi as vr
from .cosharbly import mu_sign_certificate
from .exactq import q_str
from .polytope import BudgetExceeded
from .sharbly import boundary

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _json_text(obj, indent: str) -> str:
    """One value as `json.dump(obj, fh, indent=1, sort_keys=True)` writes it
    at nesting depth len(indent)."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = indent + " "
        if set(map(type, obj)) == {int}:
            items = map(int.__repr__, obj)
        else:
            items = [_json_text(x, inner) for x in obj]
        sep = ",\n" + inner
        return f"[\n{inner}{sep.join(items)}\n{indent}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        if not all(isinstance(k, str) for k in obj):
            raise TypeError("JSON object keys must be str")
        inner = indent + " "
        items = [f"{encode_basestring_ascii(k)}: {_json_text(obj[k], inner)}" for k in sorted(obj)]
        sep = ",\n" + inner
        return f"{{\n{inner}{sep.join(items)}\n{indent}}}"
    return json.dumps(obj)


def _write_json(path, doc) -> None:
    """Write the bytes of `json.dump(doc, fh, indent=1, sort_keys=True)`
    followed by a newline, built in one pass and written at once.

    With `indent` set, the stdlib falls back to its pure-Python encoder and
    writes every token separately.  Every key must be a str (TypeError
    otherwise); json's coercion of other key types is not reproduced.
    """
    text = _json_text(doc, "")
    with open(path, "w") as fh:
        fh.write(text)
        fh.write("\n")


def _budget(s: str) -> int:
    """A --budget-nodes value: an integer >= 0."""
    budget = int(s)
    if budget < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {budget}")
    return budget


def _check_writable(args) -> None:
    """Fail fast on unwritable output paths, before long computations."""
    for attr in ("out", "cert"):
        path = getattr(args, attr, None)
        if path:
            parent = os.path.dirname(path) or "."
            if not os.access(parent, os.W_OK):
                raise FileNotFoundError(f"cannot write to {path}")


def _certify(path, cert) -> tuple[bool, str]:
    """Write the certificate to `path`, if one is given, and check it."""
    if path:
        _write_json(path, cert)
    return certs.check_certificate(cert)


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _facet_labels(arg: str) -> tuple[int, ...]:
    return tuple(int(x) for x in arg.replace(" ", "").split(","))


def _tile(args) -> vr.Tile:
    return vr.builtin_tile(args.form)


def cmd_forms_list(args) -> int:
    ranks = [args.n] if args.n is not None else sorted(data.FORMS)
    docs = []
    for n in ranks:
        for entry in vr.builtin_dataset(n):
            print(f"n={n}  {entry.name:6s}  {len(entry.vectors)} minimal vectors")
            if args.out:
                docs.append(ser.form_to_json(vr.builtin_form(entry.name)))
    if args.out:
        _write_json(args.out, docs)
    return EXIT_OK


def cmd_tile_facets(args) -> int:
    cert = ser.census_certificate(_tile(args))
    counts = cert["payload"]["counts"]
    print(f"{args.form}: {counts['total']} facets, by ray count {counts['by_rays']}")
    ok, msg = _certify(args.cert, cert)
    if args.out:
        _write_json(args.out, cert["payload"])
    print(msg)
    return EXIT_OK if ok else EXIT_INVALID


def cmd_tile_stabilizer(args) -> int:
    tile = _tile(args)
    group = vr.stabilizer(tile)
    print(f"{args.form}: stabilizer order {group.order}")
    if args.out:
        _write_json(args.out, {"form": args.form, "order": group.order,
                               "elements": [ser.matrix_to_json(g) for g in group.elements()]})
    return EXIT_OK


def _facet_config(args):
    tile = _tile(args)
    labels = _facet_labels(args.facet) if args.facet else tuple(tile.labels)
    return cy.facet_geometry(tile, labels)


def cmd_triangulate(args) -> int:
    geom = _facet_config(args)
    tri = pt.placing_triangulation(geom.config)
    heights = pt.is_regular(geom.config, tri)
    print(f"placing triangulation: {len(tri)} simplices")
    if args.out:
        _write_json(args.out, {
            "form": args.form,
            "labels": list(geom.tile_labels),
            "simplices": ser.triangulation_to_json(tri),
            "heights": ser.heights_to_json(heights),
        })
    ok, msg = _certify(
        args.cert, ser.triangulation_certificate(geom.config, tri, heights, geom.tile_labels)
    )
    print(msg)
    return EXIT_OK if ok else EXIT_INVALID


def cmd_triangulations_enumerate(args) -> int:
    geom = _facet_config(args)
    tris = pt.enumerate_regular_triangulations(geom.config, budget=args.budget_nodes)
    print(f"{len(tris)} regular triangulations")
    if args.out:
        _write_json(args.out, [ser.triangulation_to_json(t) for t in tris])
    return EXIT_OK


def _flip_path(args):
    """The facet geometry and a flip path between the pair in --in."""
    geom = _facet_config(args)
    doc = _read_json(args.infile)
    if not (isinstance(doc, dict) and "first" in doc and "second" in doc):
        raise ValueError("a flip pair is an object with 'first' and 'second'")
    t1 = ser.triangulation_from_json(doc["first"])
    t2 = ser.triangulation_from_json(doc["second"])
    return geom, pt.flip_path(geom.config, t1, t2, budget=args.budget_nodes)


def cmd_flip_path(args) -> int:
    _, path = _flip_path(args)
    print(f"flip path of length {len(path)}")
    for f in path:
        print(f"  circuit {sorted(f.circuit.labels)}")
    if args.out:
        _write_json(
            args.out,
            [
                {
                    "circuit": ser.circuit_to_json(f.circuit),
                    "removed": ser.triangulation_to_json(f.removed),
                    "inserted": ser.triangulation_to_json(f.inserted),
                }
                for f in path
            ],
        )
    return EXIT_OK


def cmd_flip_verify(args) -> int:
    geom, path = _flip_path(args)
    ok, msg = _certify(args.cert, ser.flip_identity_certificate(geom.config, path))
    print(f"{len(path)} flip identities verified; {msg}")
    return EXIT_OK if ok else EXIT_INVALID


def _write_or_print(path, doc) -> None:
    if path:
        _write_json(path, doc)
    else:
        json.dump(doc, sys.stdout, indent=1)
        print()


def cmd_sharbly_canon(args) -> int:
    chain = ser.chain_from_json(_read_json(args.infile))
    _write_or_print(args.out, ser.chain_to_json(chain))
    return EXIT_OK


def cmd_sharbly_boundary(args) -> int:
    chain = ser.chain_from_json(_read_json(args.infile))
    _write_or_print(args.out, ser.chain_to_json(boundary(chain)))
    return EXIT_OK


def cmd_cycle_build(args) -> int:
    z = cy.build_zG(args.n)
    print(
        f"cycle for n={args.n}: {len(z.provenance)} weighted terms, "
        f"{len(z.coin)} coinvariant classes, stabilizer orders {z.stabilizer_orders}"
    )
    if args.out:
        _write_json(args.out, ser.cycle_to_json(z))
    return EXIT_OK


def cmd_cycle_verify(args) -> int:
    z = ser.cycle_from_json(_read_json(args.infile))
    cert = cy.verify_boundary_zero(z)
    ok, msg = _certify(args.cert, ser.boundary_certificate(cert, z))
    print(f"boundary certificate: {'valid' if cert.valid else 'INVALID'}; {msg}")
    return EXIT_OK if cert.valid and ok else EXIT_INVALID


def cmd_cycle_remark_an(args) -> int:
    report = cy.verify_an_remark(args.n)
    classes = report["classes"]
    print(
        f"n={args.n}: boundary of the bare tile symbol has "
        f"{len(classes)} nonzero classes"
        + ("" if classes else " (vanishes in the coinvariants)")
    )
    for c in classes:
        print(f"  coefficient {c['coefficient']}, self-negating={c['is_zero']}")
    if args.out:
        doc = {
            "n": args.n,
            "classes": [
                {
                    "rep": [list(v) for v in c["rep"]],
                    "coefficient": q_str(c["coefficient"]),
                    "is_zero": c["is_zero"],
                }
                for c in classes
            ],
            "is_boundary_zero": report["is_boundary_zero"],
        }
        _write_json(args.out, doc)
    return EXIT_OK


def cmd_cocycle_certify(args) -> int:
    z = ser.cycle_from_json(_read_json(args.infile))
    cert = mu_sign_certificate(z)
    ok, msg = _certify(args.cert, ser.positivity_certificate(cert, z))
    print(f"positivity certificate: {'valid' if cert.valid else 'INVALID'}; {msg}")
    return EXIT_OK if cert.valid and ok else EXIT_INVALID


def cmd_cert_check(args) -> int:
    ok, msg = certs.check_certificate(_read_json(args.certfile))
    print(msg)
    return EXIT_OK if ok else EXIT_INVALID


def cmd_repro_all(args) -> int:
    skip = {int(x) for x in args.skip.split(",") if x} if args.skip else set()
    if not skip <= repro.CRITERIA.keys():
        raise ValueError(f"--skip names no criterion {min(skip - repro.CRITERIA.keys())}")
    if skip >= repro.CRITERIA.keys():
        raise ValueError("--skip leaves no criterion to run")
    reports = repro.run_all(seed=args.seed, budget=args.budget_nodes, skip=skip)
    width = max(len(r["name"]) for r in reports)
    all_ok = True
    for r in reports:
        status = "pass" if r.get("ok") else "FAIL"
        all_ok = all_ok and r.get("ok", False)
        print(f"criterion {r['criterion']}  {r['name']:<{width}}  {status}  {r['seconds']:8.2f}s")
        if not r.get("ok") and "error" in r:
            print(f"    {r['error']}")
    print("all criteria pass" if all_ok else "SOME CRITERIA FAIL")
    return EXIT_OK if all_ok else EXIT_INVALID


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="vcdcycle",
        description="exact sharbly cycles at the vcd of SL_n(Z), with certificates",
    )
    sub = p.add_subparsers(dest="group", required=True)

    def add_common(sp, form=False, facet=False, infile=False, out=True, cert=False,
                   budget=False):
        if form:
            sp.add_argument("--form", required=True, help="built-in form name")
        if facet:
            sp.add_argument("--facet", help="comma-separated ray labels of a facet")
        if infile:
            sp.add_argument("--in", dest="infile", required=True, help="input JSON")
        if out:
            sp.add_argument("--out", help="output JSON path")
        if cert:
            sp.add_argument("--cert", help="certificate JSON path")
        if budget:
            sp.add_argument("--budget-nodes", type=_budget, default=10000)

    forms = sub.add_parser("forms").add_subparsers(dest="action", required=True)
    f_list = forms.add_parser("list")
    f_list.add_argument("--n", type=int)
    f_list.add_argument("--out", help="write full form data as JSON")
    f_list.set_defaults(fn=cmd_forms_list)

    tile = sub.add_parser("tile").add_subparsers(dest="action", required=True)
    t_f = tile.add_parser("facets")
    add_common(t_f, form=True, cert=True)
    t_f.set_defaults(fn=cmd_tile_facets)
    t_s = tile.add_parser("stabilizer")
    add_common(t_s, form=True)
    t_s.set_defaults(fn=cmd_tile_stabilizer)

    tri = sub.add_parser("triangulate")
    add_common(tri, form=True, facet=True, cert=True)
    tri.set_defaults(fn=cmd_triangulate)

    tris = sub.add_parser("triangulations").add_subparsers(dest="action", required=True)
    te = tris.add_parser("enumerate")
    add_common(te, form=True, facet=True, budget=True)
    te.set_defaults(fn=cmd_triangulations_enumerate)

    flip = sub.add_parser("flip").add_subparsers(dest="action", required=True)
    fp = flip.add_parser("path")
    add_common(fp, form=True, facet=True, infile=True, budget=True)
    fp.set_defaults(fn=cmd_flip_path)
    fv = flip.add_parser("verify")
    add_common(fv, form=True, facet=True, infile=True, out=False, cert=True, budget=True)
    fv.set_defaults(fn=cmd_flip_verify)

    shb = sub.add_parser("sharbly").add_subparsers(dest="action", required=True)
    sc = shb.add_parser("canon")
    add_common(sc, infile=True)
    sc.set_defaults(fn=cmd_sharbly_canon)
    sb = shb.add_parser("boundary")
    add_common(sb, infile=True)
    sb.set_defaults(fn=cmd_sharbly_boundary)

    cyc = sub.add_parser("cycle").add_subparsers(dest="action", required=True)
    cb = cyc.add_parser("build")
    cb.add_argument("--n", type=int, required=True)
    add_common(cb)
    cb.set_defaults(fn=cmd_cycle_build)
    cv = cyc.add_parser("verify")
    add_common(cv, infile=True, out=False, cert=True)
    cv.set_defaults(fn=cmd_cycle_verify)
    cr = cyc.add_parser("remark-an")
    cr.add_argument("--n", type=int, required=True)
    add_common(cr)
    cr.set_defaults(fn=cmd_cycle_remark_an)

    coc = sub.add_parser("cocycle").add_subparsers(dest="action", required=True)
    cc = coc.add_parser("certify")
    add_common(cc, infile=True, out=False, cert=True)
    cc.set_defaults(fn=cmd_cocycle_certify)

    cert = sub.add_parser("cert").add_subparsers(dest="action", required=True)
    ck = cert.add_parser("check")
    ck.add_argument("certfile")
    ck.set_defaults(fn=cmd_cert_check)

    rep = sub.add_parser("repro").add_subparsers(dest="action", required=True)
    ra = rep.add_parser("all")
    ra.add_argument("--seed", type=int, default=0)
    ra.add_argument("--budget-nodes", type=_budget, default=10000)
    ra.add_argument("--skip", help="comma-separated criterion numbers to skip")
    ra.set_defaults(fn=cmd_repro_all)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_writable(args)
        return args.fn(args)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (OSError, KeyError, ValueError) as exc:  # JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
